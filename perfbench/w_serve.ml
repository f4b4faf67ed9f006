(* serve: the shipped cacti_serve binary with default settings on
   loopback HTTP, driven by a closed loop on 2 keep-alive connections:
   repeats of a warmed base set, with new design points (one-axis
   neighbours of earlier specs, and fresh specs) due on a fixed schedule
   (see Inputs.serve_stream). *)

open Common
module J = Cacti_util.Jsonx
module P = Cacti_server.Protocol

(* p95: on the shared 2-vCPU host this was tuned on, the p99 of this
   loopback loop swung 1.5 to 3x between runs with the host's load,
   while the p95 stayed within about 15%.  The run record keeps the p99
   and p99.9 (op_quantiles_ms). *)
let tail_q = 0.95
let conns = 2
let reconnect_s = 0.5


let probe_setup _cfg = ()

(* ------------------------------ HTTP -------------------------------- *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* One exchange; returns (status, body). *)
let exchange c ~meth ~target body =
  Printf.fprintf c.oc "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
    meth target (String.length body) body;
  flush c.oc;
  let status_line = strip_cr (input_line c.ic) in
  let status =
    try Scanf.sscanf status_line "HTTP/1.1 %d" Fun.id with _ -> 0
  in
  let rec headers cl =
    match strip_cr (input_line c.ic) with
    | "" -> cl
    | h -> (
        match String.index_opt h ':' with
        | Some i when String.lowercase_ascii (String.sub h 0 i) = "content-length" ->
            headers (int_of_string (String.trim (String.sub h (i + 1) (String.length h - i - 1))))
        | _ -> headers cl)
  in
  let cl = headers 0 in
  (status, really_input_string c.ic cl)

(* The "solution" member as the server printed it: everything between
   the key and the "timing" member that follows it. *)
let solution_text body =
  let key = {|"solution":|} and stop = {|,"timing":|} in
  let find sub from =
    let n = String.length body and m = String.length sub in
    let rec matches i k = k = m || (body.[i + k] = sub.[k] && matches i (k + 1)) in
    let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
    go from
  in
  let a = find key 0 in
  if a < 0 then None
  else
    let a = a + String.length key in
    let b = find stop a in
    if b < 0 then None else Some (String.sub body a (b - a))

(* ----------------------------- server ------------------------------- *)

type server = { pid : int; port : int; log : string }

let read_port log =
  match Measure.read_file log with
  | None -> None
  | Some s ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some _ when String.length line > 0 -> (
              try Scanf.sscanf line "cacti_serve: http on %[0-9.]:%d" (fun _ p -> Some p)
              with _ -> None)
          | _ -> None)
        (String.split_on_char '\n' s)

let healthy port =
  match connect port with
  | exception Unix.Unix_error _ -> false
  | c ->
      let ok =
        match exchange c ~meth:"GET" ~target:"/healthz" "" with
        | 200, _ -> true
        | _ | (exception _) -> false
      in
      close c;
      ok

(* Spawn the server and wait until /healthz answers 200: the set-up a
   user pays.  Returns the server and the elapsed time. *)
let spawn cfg i =
  let log = Filename.concat cfg.work (Printf.sprintf "serve-%d-%d.log" cfg.seed i) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Measure.now () in
  let pid =
    Unix.create_process cfg.serve_bin
      [| cfg.serve_bin; "--http"; "127.0.0.1:0" |]
      null null fd
  in
  Unix.close fd;
  Unix.close null;
  let deadline = t0 +. 60. in
  let rec wait_port () =
    match read_port log with
    | Some p -> p
    | None ->
        if Measure.now () > deadline then failwith "cacti_serve did not start";
        Unix.sleepf 0.0005;
        wait_port ()
  in
  let port = wait_port () in
  let rec wait_ok () =
    if not (healthy port) then begin
      if Measure.now () > deadline then failwith "cacti_serve not healthy";
      Unix.sleepf 0.0005;
      wait_ok ()
    end
  in
  wait_ok ();
  ({ pid; port; log }, Measure.now () -. t0)

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] s.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

let stats port =
  let c = connect port in
  let st, body = exchange c ~meth:"GET" ~target:"/stats" "" in
  close c;
  if st <> 200 then failwith "GET /stats failed";
  let j = J.parse_exn body in
  match J.member "solution" j with Some s -> s | None -> j

let counter j path =
  let rec go j = function
    | [] -> Option.value ~default:0 (J.get_int j)
    | k :: rest -> ( match J.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

(* Hit rates of the memo tiers over the timed window (stats diff). *)
let tier_rates before after =
  let d path = counter after path - counter before path in
  let rate hits misses =
    let h = d hits and m = d misses in
    Measure.ratio h (h + m)
  in
  let full = d [ "incremental"; "full_hits" ] and rows = d [ "incremental"; "rows_hits" ] in
  let miss = d [ "incremental"; "misses" ] in
  [
    l "serve.response_cache.hit_rate" "ratio"
      (rate [ "response_cache"; "hits" ] [ "response_cache"; "misses" ]);
    l "serve.solve_cache.hit_rate" "ratio"
      (rate [ "solve_cache"; "hits" ] [ "solve_cache"; "misses" ]);
    l "serve.mat_memo.hit_rate" "ratio"
      (rate [ "mat_memo"; "hits" ] [ "mat_memo"; "misses" ]);
    l "serve.incremental.reuse_rate" "ratio" (Measure.ratio (full + rows) (full + rows + miss));
  ]

(* ---------------------------- the loop ------------------------------ *)

type sent = { item : int; lat : float; fin : float }

type window = {
  reqs : sent array;  (** in completion order *)
  wall : float;
  next_new : int;  (** new specs sent *)
  bad : int;  (** not ok, or a repeat that differs from its first answer *)
}

(* Closed loop: each connection sends its next request as soon as the
   previous reply is in, until [seconds] elapse.  The next request is
   the next scheduled new spec once it is due, else the next base-set
   repeat. *)
let closed_loop port (st : Inputs.stream) sols ~seconds =
  let n_new = Array.length st.items - Inputs.n_base in
  let next_new = Atomic.make 0 and next_warm = Atomic.make 0 in
  let bad = Atomic.make 0 in
  let go = Atomic.make false and ready = Atomic.make 0 in
  let t0 = ref 0. in
  let log = Array.make conns [] in
  let pick now =
    let d = Atomic.get next_new in
    if d < n_new
       && now >= !t0 +. (float_of_int d /. Inputs.distinct_per_s)
       && Atomic.compare_and_set next_new d (d + 1)
    then Inputs.n_base + d
    else
      st.warm.(Atomic.fetch_and_add next_warm 1 mod Array.length st.warm)
  in
  let client k () =
    let c = ref (connect port) in
    Atomic.incr ready;
    while not (Atomic.get go) do Thread.yield () done;
    let reconnect_at = ref (!t0 +. reconnect_s) in
    let rec loop () =
      if Measure.now () >= !reconnect_at then begin
        close !c;
        c := connect port;
        reconnect_at := !reconnect_at +. reconnect_s
      end;
      let now = Measure.now () in
      if now < !t0 +. seconds then begin
        let item = pick now in
        let status, body =
          try exchange !c ~meth:"POST" ~target:"/solve" st.lines.(item)
          with _ -> (0, "")
        in
        let fin = Measure.now () in
        log.(k) <- { item; lat = fin -. now; fin } :: log.(k);
        (let complain what =
           if Atomic.fetch_and_add bad 1 < 3 then
             Printf.eprintf "serve: item %d %s: %s\n%!" item what
               (String.sub body 0 (min 300 (String.length body)))
         in
         match (status, solution_text body) with
         | 200, Some s -> (
             match sols.(item) with
             | None -> sols.(item) <- Some s
             | Some s' -> if s <> s' then complain "differs from its first answer")
         | _ -> complain (Printf.sprintf "failed (HTTP %d)" status));
        loop ()
      end
    in
    loop ();
    close !c
  in
  let threads = List.init conns (fun k -> Thread.create (client k) ()) in
  while Atomic.get ready < conns do Thread.delay 0.001 done;
  t0 := Measure.now ();
  Atomic.set go true;
  List.iter Thread.join threads;
  let reqs = Array.of_list (List.concat (Array.to_list log)) in
  Array.sort (fun a b -> compare a.fin b.fin) reqs;
  { reqs; wall = Measure.now () -. !t0;
    next_new = Atomic.get next_new; bad = Atomic.get bad }

let tier st r = st.Inputs.tiers.(r.item)
let lats w = Array.map (fun r -> r.lat) w.reqs

let tier_lats st t w =
  Array.of_list
    (List.filter_map
       (fun r -> if tier st r = t then Some r.lat else None)
       (Array.to_list w.reqs))

(* --------------------------- in-process ----------------------------- *)

(* The request decoded as the server decodes it, solved in process. *)
let solve_in_process line =
  match P.parse_request (J.parse_exn line) with
  | Ok (P.Solve { spec; params; _ }) -> (
      match Solver.solve_item { Inputs.name = "serve"; spec; params = params.P.opt } with
      | Ok s -> Some (J.to_string (Solver.solution_json s))
      | Error _ -> None)
  | _ -> None

(* The serve layers in-process, on requests the window sent, in order:
   parse, route, answer (by tier), render.  Each pass starts from empty
   memo tables and a fresh service warmed with the base set.  Returns
   each request's (item, latency). *)
let in_process tr (st : Inputs.stream) reqs =
  Cacti.Solve_cache.clear ();
  let svc = Cacti_server.Service.create () in
  for k = 0 to Inputs.n_base - 1 do
    ignore (Cacti_server.Service.handle_json svc (J.parse_exn st.lines.(k)))
  done;
  Array.mapi
    (fun op r ->
      let span name f = Measure.Span.with_ tr ~op name f in
      let t0 = Measure.now () in
      let j = span "serve.parse" (fun () -> J.parse_exn st.lines.(r.item)) in
      ignore (span "serve.route" (fun () -> Cacti_server.Service.routing_key j));
      let resp =
        span ("serve.answer_" ^ Inputs.tier_name (tier st r)) (fun () ->
            Cacti_server.Service.handle_json svc j)
      in
      ignore (span "serve.render" (fun () -> J.to_string resp));
      (r.item, Measure.now () -. t0))
    reqs

(* Every spec the server answered must be bit-identical to an in-process
   solve of the same request.  Checked on 2 domains, in batches; the memo
   tables are dropped after each batch to keep this process small. *)
let mismatches (st : Inputs.stream) answered =
  let pool = Cacti_util.Pool.create ~jobs:2 () in
  let rec go acc = function
    | [] -> acc
    | l ->
        let b = List.filteri (fun i _ -> i < 256) l in
        let ok =
          Cacti_util.Pool.parallel_map ~chunk:8 pool
            (fun (k, s) -> solve_in_process st.lines.(k) = Some s)
            b
        in
        Cacti.Solve_cache.clear ();
        go (acc + List.length (List.filter not ok)) (List.filteri (fun i _ -> i >= 256) l)
  in
  go 0 answered

(* ------------------------------- run -------------------------------- *)

let run cfg =
  let st = Inputs.serve_stream ~seconds:cfg.seconds cfg.seed in
  let setup, srv =
    if cfg.traced then ([||], fst (spawn cfg 0))
    else
      let probes =
        List.init (setup_probes - 1) (fun i ->
            Unix.sleepf probe_gap_s;
            let s, dt = spawn cfg i in
            stop s;
            dt)
      in
      Unix.sleepf probe_gap_s;
      let s, dt = spawn cfg (setup_probes - 1) in
      (Array.of_list (dt :: probes), s)
  in
  let sols = Array.make (Array.length st.items) None in
  let w, before, after, rss =
    Fun.protect ~finally:(fun () -> stop srv) (fun () ->
        (* Warm the base set over one connection, outside the window. *)
        let c = connect srv.port in
        for k = 0 to Inputs.n_base - 1 do
          match exchange c ~meth:"POST" ~target:"/solve" st.lines.(k) with
          | 200, body -> sols.(k) <- solution_text body
          | _ -> ()
        done;
        close c;
        let before = stats srv.port in
        let w = closed_loop srv.port st sols ~seconds:cfg.seconds in
        (w, before, stats srv.port, Measure.peak_rss_mb ~pid:srv.pid ()))
  in
  let tr = Measure.Span.create () in
  let sacc = Solver.new_acc () in
  let traced_s = ref 0. in
  let layers =
    if not cfg.traced then []
    else begin
      (* Tracing cost: passes over the first 10 000 requests. *)
      let slice = Array.sub w.reqs 0 (min 10_000 (Array.length w.reqs)) in
      let cost = tracing_cost ~reps:3 ~n:1 (fun tr _ -> in_process tr st slice) in
      tr.on <- true;
      traced_s := Array.fold_left (fun a (_, x) -> a +. x) 0. (in_process tr st w.reqs);
      tr.on <- false;
      (* The solver rows: the first new specs the window sent. *)
      Solver.layer_pass tr sacc
        (List.filteri (fun k _ -> k < 100)
           (List.filter_map
              (fun r -> if tier st r = Inputs.Warm then None else Some st.items.(r.item))
              (Array.to_list w.reqs)));
      let nreq = float_of_int (max 1 (Array.length w.reqs)) in
      let tot name = Measure.Span.total tr name in
      let per_tier t =
        let k = Array.length (tier_lats st t w) in
        if k = 0 then 0. else tot ("serve.answer_" ^ Inputs.tier_name t) /. float_of_int k
      in
      let inproc =
        (tot "serve.parse" +. tot "serve.route" +. tot "serve.answer_warm"
         +. tot "serve.answer_near" +. tot "serve.answer_cold" +. tot "serve.render")
        /. nreq
      in
      [
        l "trace_overhead" "ratio" cost;
        l "serve.parse_s" "s" (tot "serve.parse" /. nreq);
        l "serve.route_s" "s" (tot "serve.route" /. nreq);
        l "serve.answer_warm_s" "s" (per_tier Inputs.Warm);
        l "serve.answer_near_s" "s" (per_tier Inputs.Near);
        l "serve.answer_cold_s" "s" (per_tier Inputs.Cold);
        l "serve.render_s" "s" (tot "serve.render" /. nreq);
        l "serve.wire_s" "s" (Float.max 0. (Measure.mean (lats w) -. inproc));
        l "serve.cold_p50_ms" "ms" (1e3 *. Measure.median (tier_lats st Inputs.Cold w));
      ]
      @ tier_rates before after @ Solver.solver_layers tr sacc
    end
  in
  let answered =
    List.filter_map
      (fun k -> Option.map (fun s -> (k, s)) sols.(k))
      (List.init (Array.length sols) Fun.id)
  in
  let mismatches = mismatches st answered in
  let base_digests =
    List.init Inputs.n_base (fun k ->
        (Printf.sprintf "base.%03d" k, hex (Option.value ~default:"" sols.(k))))
  in
  let all = w.reqs in
  let count t = Array.fold_left (fun n r -> if tier st r = t then n + 1 else n) 0 all in
  let n_near = count Inputs.Near and n_cold = count Inputs.Cold in
  let cold = tier_lats st Inputs.Cold w in
  {
    ops = lats w;
    window_s = w.wall;
    setup;
    rss_mb = rss;
    checks =
      [
        ("every_response_ok_and_repeats_identical", w.bad = 0);
        ("base_set_answered",
         Array.for_all Option.is_some (Array.sub sols 0 Inputs.n_base));
        ("served_equals_in_process_solve", mismatches = 0);
        ("schedule_not_exhausted", w.next_new < Array.length st.items - Inputs.n_base);
        ("layer_winners_match_solve", sacc.layer_ok);
      ]
      @ check_digests cfg ~workload:"serve" base_digests;
    layers;
    record =
      trace_record cfg ~workload:"serve" tr ~window:!traced_s
      @ [
        ( "tier_shares",
          J.Obj
            [
              ("warm", J.num (Measure.ratio (count Inputs.Warm) (Array.length all)));
              ("near", J.num (Measure.ratio n_near (Array.length all)));
              ("cold", J.num (Measure.ratio n_cold (Array.length all)));
            ] );
        ("new_specs_per_s", J.num (float_of_int (n_near + n_cold) /. w.wall));
        ("new_specs_per_s_target", J.num Inputs.distinct_per_s);
        ("near_share_of_new", J.num (Measure.ratio n_near (n_near + n_cold)));
        ("near_share_target", J.num Inputs.near_target);
        ("distinct_specs_checked", J.Int (List.length answered));
        ("cold_requests", J.Int (Array.length cold));
        ("serve_cold_p50_ms", J.num (1e3 *. Measure.median cold));
        ("digests", digests_json base_digests);
      ];
  }
