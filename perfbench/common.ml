(* What every workload receives and returns. *)

module J = Cacti_util.Jsonx

let default_seed = 1

type cfg = {
  seed : int;
  seconds : float;
  traced : bool;
  work : string;  (** scratch directory for generated files and records *)
  serve_bin : string;  (** the shipped cacti_serve executable *)
}

type layer = { lname : string; value : float; unit : string }

type outcome = {
  ops : float array;  (** latency of each timed operation, seconds *)
  window_s : float;  (** wall time of the timed window *)
  setup : float array;  (** set-up samples, seconds *)
  rss_mb : float;  (** peak resident set of the program's process *)
  checks : (string * bool) list;  (** output checks, all must hold *)
  layers : layer list;  (** per-layer metrics (traced runs) *)
  record : (string * J.t) list;  (** extra run-record fields *)
}

let l lname unit value = { lname; value; unit }

(* Reference digests of the default seed, one JSON object keyed by
   workload then item, relative to the repository root. *)
let load_digests () =
  match Measure.read_file "perfbench/digests.json" with
  | None -> J.Obj []
  | Some s -> ( match J.parse s with Ok j -> j | Error _ -> J.Obj [])

(* [check_digests cfg ~workload items] compares [(item, digest)] pairs
   against the stored references when the seed is the default one.
   Returns the check list entry, named after [workload] (absent for
   other seeds). *)
let check_digests cfg ~workload items =
  if cfg.seed <> default_seed then []
  else
    let refs = load_digests () in
    let stored =
      match J.member workload refs with Some o -> o | None -> J.Obj []
    in
    let bad =
      List.filter
        (fun (k, d) ->
          match J.member k stored with
          | Some (J.String d') -> d <> d'
          | _ -> true)
        items
    in
    List.iter
      (fun (k, d) -> Printf.eprintf "digest mismatch: %s/%s = %s\n" workload k d)
      bad;
    [ (workload ^ "_digests_match_default_seed", bad = []) ]

let digests_json items =
  J.Obj (List.map (fun (k, d) -> (k, J.String d)) items)

let hex s = Digest.to_hex (Digest.string s)

(* ------------------------- set-up probes ---------------------------- *)

(* Set-up probes are spaced out, so that they sample the shared host's
   fast and slow phases instead of all landing in one. *)
let probe_gap_s = 0.15

(* Set-up samples per run; setup_s is their median. *)
let setup_probes = 21

(* Time [setup_probes] fresh processes from spawn until they report ready
   on stdout: the program's set-up as a user pays it.  The child is this
   executable in probe mode. *)
let probe_self args =
  Array.init setup_probes (fun _ ->
      Unix.sleepf probe_gap_s;
      let r, w = Unix.pipe ~cloexec:true () in
      let t0 = Measure.now () in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.append [| Sys.executable_name; "--probe-setup" |] args)
          Unix.stdin w Unix.stderr
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      let t1 = Measure.now () in
      close_in ic;
      let _, st = Unix.waitpid [] pid in
      if line <> "ready" || st <> Unix.WEXITED 0 then
        failwith "set-up probe failed";
      t1 -. t0)

let probe_args cfg workload =
  [| "--workload"; workload; "--seed"; string_of_int cfg.seed;
     "--work"; cfg.work |]

(* Run [f i] for i = start, start+1, ... until [seconds] have elapsed
   and [i] reached [until]; [f] returns the op's latency. *)
let loop ~seconds ~start ~until f =
  let lat = Measure.Samples.create () in
  let t_start = Measure.now () in
  let i = ref start in
  while Measure.now () -. t_start < seconds || !i < until do
    Measure.Samples.add lat (f !i);
    incr i
  done;
  (Measure.Samples.to_array lat, Measure.now () -. t_start, !i)

(* The timed window.  Untraced runs time [cfg.seconds]; traced runs time
   half untraced, then half with [tr] recording (starting on a multiple
   of [align], at least [align] ops).  Returns the ops of the reported
   half and its length. *)
let window cfg ?(align = 1) ~until tr f =
  if not cfg.traced then
    let ops, w, _ = loop ~seconds:cfg.seconds ~start:0 ~until (f ~traced:false) in
    (ops, w)
  else begin
    let half = cfg.seconds /. 2. in
    let _, _, next = loop ~seconds:half ~start:0 ~until (f ~traced:false) in
    let start = (next + align - 1) / align * align in
    tr.Measure.Span.on <- true;
    let t, w, _ =
      loop ~seconds:half ~start ~until:(max until (start + align)) (f ~traced:true)
    in
    tr.on <- false;
    (t, w)
  end

(* The smallest latency seen for each key of [(key, latency)] pairs,
   and how often the key occurs. *)
let minima pairs =
  let t = Hashtbl.create 64 in
  Array.iter
    (fun (k, x) ->
      match Hashtbl.find_opt t k with
      | Some (y, n) -> Hashtbl.replace t k (Float.min x y, n + 1)
      | None -> Hashtbl.replace t k (x, 1))
    pairs;
  t

(* Relative change of op time with tracing on, the same code run with
   spans off ([untraced]) and on ([traced]).  Host interference only
   ever slows an op down, so each input is compared by its fastest
   latency on either side, weighted by how often the untraced side ran
   it; inputs only one side ran are left out. *)
let overhead ~untraced ~traced =
  let u = minima untraced and t = minima traced in
  let su, st =
    Hashtbl.fold
      (fun k (x, n) (su, st) ->
        match Hashtbl.find_opt t k with
        | Some (y, _) ->
            let w = float_of_int n in
            (su +. (w *. x), st +. (w *. y))
        | None -> (su, st))
      u (0., 0.)
  in
  if su = 0. then 0. else (st /. su) -. 1.

(* Tracing cost: ops 0 to [n - 1] each run with spans off, then on,
   [reps] times over, on a recorder of their own.  [f tr i] runs op [i]
   and returns the (input, latency) pairs it timed. *)
let tracing_cost ~reps ~n f =
  let tr = Measure.Span.create () in
  let off = ref [] and on = ref [] in
  for k = 0 to (reps * n) - 1 do
    tr.on <- false;
    off := f tr (k mod n) :: !off;
    tr.on <- true;
    on := f tr (k mod n) :: !on;
    tr.on <- false
  done;
  overhead ~untraced:(Array.concat !off) ~traced:(Array.concat !on)

(* Traced runs write their spans out and record each layer's self time
   and its share of the traced window. *)
let trace_record cfg ~workload tr ~window =
  if not cfg.traced then []
  else begin
    Measure.Span.write tr (Filename.concat cfg.work ("spans-" ^ workload ^ ".csv"));
    [
      ( "layer_self",
        J.Obj
          (List.map
             (fun (k, v) ->
               (k, J.Obj [ ("self_s", J.num v); ("share", J.num (v /. window)) ]))
             (Measure.Span.self_times tr)) );
    ]
  end
