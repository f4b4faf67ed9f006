(* replay: one seeded binary trace replayed through the skl preset with
   4 cores, three ways in turn: summary only at jobs 1; summary only at
   jobs 2 (load_source + run_sharded); per-access CSV at jobs 2 with the
   emitted slabs discarded so disk speed stays out. *)

open Common
module R = Mcreplay.Replayer
module T = Mcreplay.Trace_io
module J = Cacti_util.Jsonx

let n_accesses = 131_072 (* 32 blocks, 8 of each class *)
let tail_q = 0.90

type mode = Serial | Sharded | Csv

let mode_of i = match i mod 3 with 0 -> Serial | 1 -> Sharded | _ -> Csv

let config () =
  match Mcsim.Policy.preset_of_string "skl" with
  | Ok p -> R.with_preset p { R.default_config with n_cores = 4 }
  | Error d -> failwith (Cacti_util.Diag.to_string d)

let trace_path cfg = Filename.concat cfg.work (Printf.sprintf "trace-%d.bin" cfg.seed)

let prepare cfg =
  let recs, block_cls = Inputs.replay_trace ~n:n_accesses cfg.seed in
  Inputs.write_trace (trace_path cfg) recs;
  block_cls

let probe_setup cfg = ignore (T.load_source (trace_path cfg))

let render cfg : R.render =
 fun b ~seq ~tid ~write ~addr o ->
  Mcreplay.Report.append_csv_row b ~seq ~tid ~write ~addr
    ~line_bytes:cfg.R.line_bytes o

(* One pass as a user runs it: trace file to summary. *)
let pass rcfg path mode =
  let src = T.load_source path in
  match mode with
  | Serial -> (fst (R.run_sharded ~jobs:1 rcfg src), 0)
  | Sharded -> (fst (R.run_sharded ~jobs:2 rcfg src), 0)
  | Csv ->
      let bytes = ref 0 in
      let s, _ =
        R.run_sharded ~jobs:2 ~render:(render rcfg)
          ~emit:(fun slab -> bytes := !bytes + String.length slab)
          rcfg src
      in
      (s, !bytes)

let csv_of rcfg path ~jobs =
  let b = Buffer.create (1 lsl 20) in
  let s, _ =
    R.run_sharded ~jobs ~render:(render rcfg) ~emit:(Buffer.add_string b) rcfg
      (T.load_source path)
  in
  (s, Buffer.contents b)

(* ------------------------------ traced ------------------------------ *)

type acc = {
  cls_s : float array;  (** step time per class *)
  cls_n : int array;
  mutable serial_words : float;
  mutable serial_n : int;
  mutable bucket_s : float list;
  mutable shard_s : float list;
  mutable shard_max_s : float list;
  mutable merge_s : float list;
  mutable sharded_pass : float list;  (** pass time minus map *)
  mutable csv_pass : float list;
  mutable last : R.summary;
}

let new_acc () =
  { cls_s = Array.make 4 0.; cls_n = Array.make 4 0; serial_words = 0.;
    serial_n = 0; bucket_s = []; shard_s = []; shard_max_s = []; merge_s = [];
    sharded_pass = []; csv_pass = []; last = R.empty_summary }

(* The same three passes through the public layer calls, with a span
   around each call.  Returns the pass's summary and CSV byte count. *)
let traced_pass tr acc rcfg path block_cls ~op mode =
  let span name f = Measure.Span.with_ tr ~op name f in
  let src = span "replay.map" (fun () -> T.load_source path) in
  match mode with
  | Serial ->
      let r = R.create rcfg in
      let w0 = Gc.minor_words () in
      let i = ref 0 and t_blk = ref (Measure.now ()) in
      let close_block () =
        let t = Measure.now () in
        let c = (!i - 1) / Inputs.block in
        let k = Inputs.class_index block_cls.(c) in
        acc.cls_s.(k) <- acc.cls_s.(k) +. (t -. !t_blk);
        acc.cls_n.(k) <- acc.cls_n.(k) + (((!i - 1) mod Inputs.block) + 1);
        Measure.Span.add tr ~op ("replay.class." ^ Inputs.class_name block_cls.(c))
          !t_blk t;
        t_blk := t
      in
      T.iter_source src ~f:(fun ~tid ~write ~addr ->
          if !i > 0 && !i mod Inputs.block = 0 then close_block ();
          ignore (R.step r ~tid ~write ~addr : R.outcome);
          incr i);
      if !i > 0 then close_block ();
      acc.serial_words <- acc.serial_words +. (Gc.minor_words () -. w0);
      acc.serial_n <- acc.serial_n + !i;
      let s = R.summary r in
      acc.last <- s;
      (s, 0)
  | Sharded ->
      let t0 = Measure.now () in
      let bk =
        span "replay.bucket" (fun () ->
            T.bucket src
              ~line_shift:(Cacti_util.Floatx.clog2 rcfg.R.line_bytes)
              ~bits:1)
      in
      let t_b = Measure.now () in
      let sums = Array.make 2 R.empty_summary in
      let times = Array.make 2 (0., 0.) in
      let pool = Cacti_util.Pool.create ~jobs:2 () in
      Cacti_util.Pool.run_chunked ~chunk:1 pool 2 (fun s ->
          let a = Measure.now () in
          let r = R.create rcfg in
          R.replay_shard r src bk ~shard:s;
          sums.(s) <- R.summary r;
          times.(s) <- (a, Measure.now ()));
      let sum =
        span "replay.merge" (fun () ->
            Array.fold_left R.add_summary R.empty_summary sums)
      in
      let t_end = Measure.now () in
      Array.iter (fun (a, b) -> Measure.Span.add tr ~op "replay.shard" a b) times;
      let durs = Array.map (fun (a, b) -> b -. a) times in
      let last_end = Array.fold_left (fun m (_, b) -> Float.max m b) 0. times in
      acc.bucket_s <- (t_b -. t0) :: acc.bucket_s;
      acc.shard_s <- Array.fold_left ( +. ) 0. durs :: acc.shard_s;
      acc.shard_max_s <- Array.fold_left Float.max 0. durs :: acc.shard_max_s;
      acc.merge_s <- (t_end -. last_end) :: acc.merge_s;
      acc.sharded_pass <- (t_end -. t0) :: acc.sharded_pass;
      (sum, 0)
  | Csv ->
      let t0 = Measure.now () in
      let bytes = ref 0 in
      let s, _ =
        span "replay.csv_pass" (fun () ->
            R.run_sharded ~jobs:2 ~render:(render rcfg)
              ~emit:(fun slab -> bytes := !bytes + String.length slab)
              rcfg src)
      in
      acc.csv_pass <- (Measure.now () -. t0) :: acc.csv_pass;
      (s, !bytes)

let mean_l l = Measure.mean (Array.of_list l)

let layers acc ~modes_untraced =
  let s = acc.last in
  let perk x =
    if s.R.accesses = 0 then 0.
    else 1000. *. float_of_int x /. float_of_int s.accesses
  in
  let rate k =
    if acc.cls_s.(k) = 0. then 0. else float_of_int acc.cls_n.(k) /. acc.cls_s.(k) /. 1e6
  in
  let mrate m =
    let ts = List.filter_map (fun (m', t) -> if m' = m then Some t else None) modes_untraced in
    if ts = [] then 0. else float_of_int n_accesses /. mean_l ts /. 1e6
  in
  [
    l "replay.bucket_s" "s" (mean_l acc.bucket_s);
    l "replay.shard_s" "s" (mean_l acc.shard_s);
    l "replay.shard_max_s" "s" (mean_l acc.shard_max_s);
    l "replay.render_s" "s" (Float.max 0. (mean_l acc.csv_pass -. mean_l acc.sharded_pass));
    l "replay.merge_s" "s" (mean_l acc.merge_s);
    l "replay.class.l1_maccess_s" "Macc/s" (rate 0);
    l "replay.class.l2_maccess_s" "Macc/s" (rate 1);
    l "replay.class.stream_maccess_s" "Macc/s" (rate 2);
    l "replay.class.pingpong_maccess_s" "Macc/s" (rate 3);
    l "replay.l1_hit_rate" "ratio" (Measure.ratio s.l1_hits s.accesses);
    l "replay.l2_hit_rate" "ratio" (Measure.ratio s.l2_hits s.l2_accesses);
    l "replay.l3_hit_rate" "ratio" (Measure.ratio s.l3_hits s.l3_accesses);
    l "replay.inval_per_kacc" "count" (perk s.invalidations);
    l "replay.c2c_per_kacc" "count" (perk s.c2c_transfers);
    l "replay.wb_per_kacc" "count" (perk s.writebacks);
    l "replay.minor_words_per_access" "words"
      (if acc.serial_n = 0 then 0. else acc.serial_words /. float_of_int acc.serial_n);
    l "replay.serial_maccess_s" "Macc/s" (mrate Serial);
    l "replay.maccess_s" "Macc/s" (mrate Sharded);
    l "replay.csv_maccess_s" "Macc/s" (mrate Csv);
  ]

(* ------------------------------- run -------------------------------- *)

let run cfg =
  let block_cls = prepare cfg in
  let path = trace_path cfg in
  let rcfg = config () in
  let setup =
    if cfg.traced then [||] else probe_self (probe_args cfg "replay")
  in
  (* Reference: the serial summary and CSV, computed once up front. *)
  let ref_sum, ref_csv = csv_of rcfg path ~jobs:1 in
  let ok = ref true in
  let tr = Measure.Span.create () in
  let acc = new_acc () in
  let modes = ref [] in
  let one ~traced i =
    let mode = mode_of i in
    let t0 = Measure.now () in
    let s, bytes =
      if traced then traced_pass tr acc rcfg path block_cls ~op:i mode
      else pass rcfg path mode
    in
    let dt = Measure.now () -. t0 in
    if not traced then modes := (mode, dt) :: !modes;
    if compare s ref_sum <> 0 then ok := false;
    if mode = Csv && bytes <> String.length ref_csv then ok := false;
    dt
  in
  let ops, window = window cfg ~align:3 ~until:3 tr one in
  let layers =
    if not cfg.traced then []
    else
      let cost_acc = new_acc () in
      l "trace_overhead" "ratio"
        (tracing_cost ~reps:10 ~n:3 (fun tr i ->
             let t0 = Measure.now () in
             ignore (traced_pass tr cost_acc rcfg path block_cls ~op:i (mode_of i));
             [| (i, Measure.now () -. t0) |]))
      :: l "replay.map_s" "s"
           (Measure.Span.total tr "replay.map" /. float_of_int (max 1 (Array.length ops)))
      :: layers acc ~modes_untraced:!modes
  in
  let rss = Measure.peak_rss_mb () in
  let sh_sum, sh_csv = csv_of rcfg path ~jobs:2 in
  let summary_json = J.to_string (Mcreplay.Report.summary_json ~config:rcfg ref_sum) in
  let digests = [ ("summary", hex summary_json); ("csv", hex ref_csv) ] in
  let shares =
    let c = Array.make 4 0 in
    Array.iteri
      (fun b k ->
        let len = min Inputs.block (n_accesses - (b * Inputs.block)) in
        let i = Inputs.class_index k in
        c.(i) <- c.(i) + len)
      block_cls;
    J.Obj
      (Array.to_list
         (Array.mapi
            (fun i k -> (Inputs.class_name k, J.num (Measure.ratio c.(i) n_accesses)))
            Inputs.classes))
  in
  {
    ops;
    window_s = window;
    setup;
    rss_mb = rss;
    checks =
      [
        ("passes_match_serial_summary", !ok);
        ("sharded_summary_equals_serial", compare sh_sum ref_sum = 0);
        ("sharded_csv_equals_serial", sh_csv = ref_csv);
      ]
      @ check_digests cfg ~workload:"replay" digests;
    layers;
    record =
      trace_record cfg ~workload:"replay" tr ~window:window
      @ [
        ("accesses_per_pass", J.Int n_accesses);
        ("class_shares", shares);
        ("digests", digests_json digests);
      ];
  }
