(* serve_bench: throughput/latency benchmark for the solve service.

     dune exec bench/serve_bench.exe -- --quick --out BENCH_serve_micro.json

   (The full-server load test — listeners, queues, shards, concurrent
   connections — is bench/load_bench.exe, which owns BENCH_serve.json.)

   Drives [Cacti_server.Service.handle_line] — the full wire path (JSONL
   parse, spec decode, solve, response print) the batch transport and the
   socket workers share — through two phases:

   - cold: every request is a distinct spec, so each one pays a full
     design-space sweep (memo misses);
   - warm: the same specs again, many times over, so every request is
     answered from the Solve_cache memo table (the steady state of a
     long-running daemon);

   then times the warm admission path on its own ([warm_admit]): one full
   request answered from the response cache by [Service.admit] — the
   transports' entry point — plus the HTTP status of its reply.

   Per-request wall times are recorded exactly; p50/p90/p99 are order
   statistics over the sorted sample, not histogram estimates.  Results
   land in BENCH_serve.json (schema in EXPERIMENTS.md) together with the
   server's own stats object, whose hit counters double-check that the
   warm phase really was all memo hits. *)

open Cacti_util
open Cacti_server

(* The request mix: cache and ram specs over a few sizes and nodes.  Raw
   JSONL strings, so the benchmark measures what a real client costs. *)
let workload ~quick =
  let cache id size assoc nm =
    Printf.sprintf
      {|{"id":%d,"kind":"cache","spec":{"tech_nm":%g,"capacity_bytes":%d,"assoc":%d}}|}
      id nm size assoc
  in
  let ram id size word nm =
    Printf.sprintf
      {|{"id":%d,"kind":"ram","spec":{"tech_nm":%g,"capacity_bytes":%d,"word_bits":%d}}|}
      id nm size word
  in
  let specs =
    if quick then
      [
        cache 0 (32 * 1024) 4 45.;
        cache 1 (64 * 1024) 8 32.;
        ram 2 (16 * 1024) 64 45.;
        ram 3 (32 * 1024) 128 65.;
      ]
    else
      [
        cache 0 (32 * 1024) 4 45.;
        cache 1 (64 * 1024) 8 32.;
        cache 2 (128 * 1024) 8 45.;
        cache 3 (256 * 1024) 8 65.;
        cache 4 (512 * 1024) 16 32.;
        ram 5 (16 * 1024) 64 45.;
        ram 6 (32 * 1024) 128 65.;
        ram 7 (64 * 1024) 64 32.;
        ram 8 (128 * 1024) 256 45.;
        ram 9 (256 * 1024) 128 90.;
      ]
  in
  (specs, if quick then 200 else 2000)

type phase = {
  requests : int;
  wall_s : float;
  rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let run_phase service lines =
  let lat = Array.make (List.length lines) 0. in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i line ->
      let r0 = Unix.gettimeofday () in
      let resp = Service.handle_line service line in
      lat.(i) <- (Unix.gettimeofday () -. r0) *. 1e3;
      if not (String.length resp > 0) then failwith "empty response")
    lines;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare lat;
  let n = Array.length lat in
  {
    requests = n;
    wall_s = wall;
    rps = float_of_int n /. wall;
    p50_ms = percentile lat 0.50;
    p90_ms = percentile lat 0.90;
    p99_ms = percentile lat 0.99;
    max_ms = (if n = 0 then 0. else lat.(n - 1));
  }

(* A request as a sweep client sends it: every spec field spelled out and
   default params (395 bytes). *)
let warm_admit_line () =
  let spec =
    Cacti.Cache_spec.create
      ~tech:(Cacti_tech.Technology.at_nm 45.)
      ~capacity_bytes:(256 * 1024) ~assoc:8 ~n_banks:2 ~block_bytes:64 ()
  in
  Jsonx.to_string
    (Protocol.encode_request
       (Protocol.Solve
          {
            id = Jsonx.Int 123;
            spec = Protocol.Cache spec;
            params = Protocol.default_params;
          }))

type warm_admit = {
  wa_requests : int;
  wa_request_bytes : int;
  wa_us : float;  (** per request *)
  wa_minor_words : float;  (** per request *)
}

(* Admission plus status classification of a response-cache hit, in
   process: the server-side CPU of a warm HTTP request minus the socket
   reads and writes.  Fails when the reply is not a warm hit. *)
let run_warm_admit service ~quick =
  let line = warm_admit_line () in
  ignore (Service.handle_line service line);
  let last = ref (Service.Draining, "") in
  let reply status body = last := (status, body) in
  let once () =
    Service.admit service ~reply line;
    ignore (Sys.opaque_identity (Http.http_status (fst !last)))
  in
  for _ = 1 to 1000 do
    once ()
  done;
  let n = if quick then 20_000 else 200_000 in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    once ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let hits =
    Option.bind (Jsonx.parse (snd !last) |> Result.to_option) (fun r ->
        Option.bind (Jsonx.member "timing" r) (Jsonx.member "cache_hits"))
    |> Fun.flip Option.bind Jsonx.get_int
  in
  if fst !last <> Service.Answered || hits <> Some 2 then begin
    prerr_endline "FAIL: warm_admit reply was not a response-cache hit";
    exit 1
  end;
  {
    wa_requests = n;
    wa_request_bytes = String.length line;
    wa_us = wall /. float_of_int n *. 1e6;
    wa_minor_words = words /. float_of_int n;
  }

let phase_json p =
  Jsonx.Obj
    [
      ("requests", Jsonx.Int p.requests);
      ("wall_s", Jsonx.num p.wall_s);
      ("rps", Jsonx.num p.rps);
      ("p50_ms", Jsonx.num p.p50_ms);
      ("p90_ms", Jsonx.num p.p90_ms);
      ("p99_ms", Jsonx.num p.p99_ms);
      ("max_ms", Jsonx.num p.max_ms);
    ]

let () =
  let quick = ref false in
  let jobs = ref None in
  let out = ref "BENCH_serve_micro.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v > 0 ->
            jobs := Some v;
            parse rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 1)
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | ("--help" | "-h") :: _ ->
        print_endline
          "usage: bench/serve_bench.exe [--quick] [--jobs N] [--out FILE]";
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let specs, warm_factor = workload ~quick:!quick in
  let service = Service.create ?jobs:!jobs () in
  Printf.printf "cold: %d distinct solve request(s)...\n%!" (List.length specs);
  let cold = run_phase service specs in
  Printf.printf "cold: %.1f req/s, p50 %.2f ms, p99 %.2f ms\n%!" cold.rps
    cold.p50_ms cold.p99_ms;
  let warm_lines =
    List.concat_map (fun _ -> specs) (List.init warm_factor Fun.id)
  in
  Printf.printf "warm: %d memoized request(s)...\n%!" (List.length warm_lines);
  let warm = run_phase service warm_lines in
  Printf.printf "warm: %.0f req/s, p50 %.3f ms, p99 %.3f ms\n%!" warm.rps
    warm.p50_ms warm.p99_ms;
  let wa = run_warm_admit service ~quick:!quick in
  Printf.printf "warm_admit: %.2f us, %.0f minor words per request\n%!"
    wa.wa_us wa.wa_minor_words;
  let stats = Service.stats_json service in
  let doc =
    Jsonx.Obj
      [
        ("schema_version", Jsonx.Int 2);
        ("quick", Jsonx.Bool !quick);
        ( "jobs",
          match !jobs with Some j -> Jsonx.Int j | None -> Jsonx.Null );
        ("cold", phase_json cold);
        ("warm", phase_json warm);
        ( "warm_admit",
          Jsonx.Obj
            [
              ("requests", Jsonx.Int wa.wa_requests);
              ("request_bytes", Jsonx.Int wa.wa_request_bytes);
              ("us_per_request", Jsonx.num wa.wa_us);
              ("minor_words_per_request", Jsonx.num wa.wa_minor_words);
            ] );
        ("server_stats", stats);
      ]
  in
  let oc = open_out !out in
  output_string oc (Jsonx.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;
  (* The warm phase is only meaningful if it really hit a warm table —
     the response cache answers repeats first, the solve cache anything
     that misses it. *)
  let hits section =
    Option.bind (Jsonx.member section stats) (Jsonx.member "hits")
    |> Fun.flip Option.bind Jsonx.get_int
    |> Option.value ~default:0
  in
  if hits "solve_cache" + hits "response_cache" = 0 then begin
    prerr_endline "FAIL: warm phase recorded no cache hits";
    exit 1
  end
