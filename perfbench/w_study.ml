(* study: the Section-4 LLC study.  The six configurations are built cold
   (CACTI-D solves, counted in set-up), then Study.run_app runs serially
   over the 8 NPB apps x 6 configurations at a reduced instruction count,
   round after round.  Modelled caches start empty in every cell.  After
   the window, Table 3's components and the validation points are solved
   once more, untimed, and checked. *)

open Common
module S = Mcsim.Study
module J = Cacti_util.Jsonx

let instructions = 125_000
let tail_q = 0.95

let params seed =
  {
    Mcsim.Engine.default_params with
    total_instructions = instructions;
    seed = Int64.of_int (42 + (seed * 7919));
  }

(* Grid order of the paper's figures: every app on every configuration. *)
let cells builts =
  Array.of_list
    (List.concat_map (fun app -> List.map (fun b -> (app, b)) builts) Mcsim.Apps.all)

let build_all () = List.map (fun k -> S.build k) S.all_kinds
let probe_setup _cfg = ignore (build_all ())

let stats_digest (st : Mcsim.Stats.t) =
  hex (Marshal.to_string st [ Marshal.No_sharing ])

let cell_name ((app : Mcsim.Workload.app), (b : S.built)) =
  app.name ^ "/" ^ S.kind_name b.kind

(* Standalone address generation for the references one cell draws,
   timed apart from the engine: the workload layer's own cost. *)
let time_workload (app : Mcsim.Workload.app) (b : S.built) p =
  let m = b.machine in
  let n_threads = m.Mcsim.Machine.n_cores * m.threads_per_core in
  let refs =
    int_of_float (float_of_int p.Mcsim.Engine.total_instructions *. app.mem_ratio)
  in
  let per = (refs + n_threads - 1) / n_threads in
  let sink = ref 0 in
  let t0 = Measure.now () in
  for t = 0 to n_threads - 1 do
    let g =
      Mcsim.Workload.gen app ~n_threads ~thread_id:t ~seed:p.Mcsim.Engine.seed
    in
    for _ = 1 to per do
      sink := !sink lxor Mcsim.Workload.next_packed g
    done
  done;
  ignore (Sys.opaque_identity !sink);
  Measure.now () -. t0

type acc = {
  mutable instr : int;
  mutable l1a : int;
  mutable l1h : int;
  mutable l2a : int;
  mutable l2h : int;
  mutable l3a : int;
  mutable l3h : int;
  mutable mem : int;
  mutable c2c : int;
  mutable row_hits : int;
  mutable dram_rw : int;
  mutable words : float;
  mutable wl_s : float;
  mutable n : int;
}

let add acc (st : Mcsim.Stats.t) words wl =
  acc.instr <- acc.instr + st.instructions;
  acc.l1a <- acc.l1a + st.l1_accesses;
  acc.l1h <- acc.l1h + st.l1_hits;
  acc.l2a <- acc.l2a + st.l2_accesses;
  acc.l2h <- acc.l2h + st.l2_hits;
  acc.l3a <- acc.l3a + st.l3_accesses;
  acc.l3h <- acc.l3h + st.l3_hits;
  acc.mem <- acc.mem + st.mem_reads + st.mem_writes;
  acc.c2c <- acc.c2c + st.c2c_transfers;
  (match st.dram with
  | Some d ->
      acc.row_hits <- acc.row_hits + d.Mcsim.Dram_sim.row_hits;
      acc.dram_rw <- acc.dram_rw + d.reads + d.writes
  | None -> ());
  acc.words <- acc.words +. words;
  acc.wl_s <- acc.wl_s +. wl;
  acc.n <- acc.n + 1

let run cfg =
  let setup =
    if cfg.traced then [||] else probe_self (probe_args cfg "study")
  in
  let p = params cfg.seed in
  let cells = cells (build_all ()) in
  let n = Array.length cells in
  let first = Array.make n None in
  let consistent = ref true and repeatable = ref true in
  let tr = Measure.Span.create () in
  let acc =
    { instr = 0; l1a = 0; l1h = 0; l2a = 0; l2h = 0; l3a = 0; l3h = 0; mem = 0;
      c2c = 0; row_hits = 0; dram_rw = 0; words = 0.; wl_s = 0.; n = 0 }
  in
  let one tr ~traced i =
    let app, b = cells.(i mod n) in
    let w0 = Gc.minor_words () in
    let t0 = Measure.now () in
    let r =
      Measure.Span.with_ tr ~op:i "sim.engine" (fun () -> S.run_app ~params:p b app)
    in
    let t1 = Measure.now () in
    let words = Gc.minor_words () -. w0 in
    let st = r.S.stats in
    (match Mcsim.Stats.check_consistency st with
    | Ok () -> ()
    | Error msg ->
        consistent := false;
        prerr_endline (cell_name cells.(i mod n) ^ ": " ^ msg));
    (match first.(i mod n) with
    | None -> first.(i mod n) <- Some (stats_digest st)
    | Some d -> if d <> stats_digest st then repeatable := false);
    if traced then add acc st words (time_workload app b p);
    t1 -. t0
  in
  let ops, window = window cfg ~until:n tr (one tr) in
  (* The solver rows: the set-up's own solves, Table 3's components. *)
  let sacc = Solver.new_acc () in
  let layers =
    if not cfg.traced then []
    else begin
      Solver.layer_pass tr sacc
        (List.filter
           (fun (it : Inputs.item) -> String.starts_with ~prefix:"t3." it.name)
           (Inputs.fixed_suite ()));
      Solver.solver_layers tr sacc @
      let per x = if acc.n = 0 then 0. else x /. float_of_int acc.n in
      let kinstr = float_of_int acc.instr /. 1000. in
      let perk x = if acc.instr = 0 then 0. else float_of_int x /. kinstr in
      [
        l "trace_overhead" "ratio"
          (tracing_cost ~reps:3 ~n (fun tr i -> [| (i, one tr ~traced:false i) |]));
        l "sim.workload_s" "s" (per acc.wl_s);
        l "sim.engine_s" "s" (per (Measure.Span.total tr "sim.engine"));
        l "sim.cell_max_s" "s" (Measure.Span.max_of tr "sim.engine");
        l "sim.l1_hit_rate" "ratio" (Measure.ratio acc.l1h acc.l1a);
        l "sim.l2_hit_rate" "ratio" (Measure.ratio acc.l2h acc.l2a);
        l "sim.l3_hit_rate" "ratio" (Measure.ratio acc.l3h acc.l3a);
        l "sim.mem_per_kinstr" "count" (perk acc.mem);
        l "sim.dram_row_hit_rate" "ratio" (Measure.ratio acc.row_hits acc.dram_rw);
        l "sim.c2c_per_kinstr" "count" (perk acc.c2c);
        l "sim.minor_words_per_instr" "words"
          (if acc.instr = 0 then 0. else acc.words /. float_of_int acc.instr);
      ]
    end
  in
  let rss = Measure.peak_rss_mb () in
  let suite_checks, suite_record = Solver.check_fixed_suite cfg in
  let digests =
    Array.to_list
      (Array.mapi
         (fun i d -> (cell_name cells.(i), Option.value ~default:"" d))
         first)
  in
  let mips =
    float_of_int (Array.length ops * instructions) /. window /. 1e6
  in
  {
    ops;
    window_s = window;
    setup;
    rss_mb = rss;
    checks =
      [
        ("stats_consistent", !consistent);
        ("cells_repeatable", !repeatable);
        ("layer_winners_match_solve", sacc.layer_ok);
      ]
      @ check_digests cfg ~workload:"study" digests
      @ suite_checks;
    layers;
    record =
      trace_record cfg ~workload:"study" tr ~window:window
      @ [
        ("instructions_per_cell", J.Int instructions);
        ("study_mips", J.num mips);
        ("digests", digests_json digests);
      ]
      @ suite_record;
  }
