(* The repo benchmark: one command runs one workload on seeded inputs,
   checks the program's outputs and prints every metric by name with its
   unit; the last line of stdout is the JSON result.  Run it through
   perfbench/run.py, which builds it in the release profile:

     perfbench.exe --workload study|replay|serve --seed N \
       --seconds S --trace 0|1 [--work DIR] [--serve-bin PATH]

   With --trace 0 the end-to-end metrics are printed; with --trace 1 the
   per-layer metrics, measured by spans around the benchmark's own calls
   into the program.  See perfbench/README.md. *)

open Common
module J = Cacti_util.Jsonx

type workload = {
  tail_q : float;
  probe : cfg -> unit;
  run : cfg -> outcome;
}

let workloads =
  [
    ("study", { tail_q = W_study.tail_q; probe = W_study.probe_setup; run = W_study.run });
    ("replay", { tail_q = W_replay.tail_q; probe = W_replay.probe_setup; run = W_replay.run });
    ("serve", { tail_q = W_serve.tail_q; probe = W_serve.probe_setup; run = W_serve.run });
  ]

(* Every per-layer metric, as BENCHMARK.json lists them: a traced run
   prints them all, with 0 for layers its workload does not reach. *)
let per_layer =
  [
    ("trace_overhead", "ratio");
    ("solver.screen_s", "s");
    ("solver.sweep_s", "s");
    ("solver.optimize_s", "s");
    ("solver.materialize_s", "s");
    ("solver.candidates", "count");
    ("solver.screened", "count");
    ("solver.evaluated", "count");
    ("solver.pruned", "count");
    ("solver.eval_ratio", "ratio");
    ("solver.minor_words_per_eval", "words");
    ("serve.response_cache.hit_rate", "ratio");
    ("serve.solve_cache.hit_rate", "ratio");
    ("serve.mat_memo.hit_rate", "ratio");
    ("serve.incremental.reuse_rate", "ratio");
    ("serve.parse_s", "s");
    ("serve.route_s", "s");
    ("serve.answer_warm_s", "s");
    ("serve.answer_near_s", "s");
    ("serve.answer_cold_s", "s");
    ("serve.render_s", "s");
    ("serve.wire_s", "s");
    ("serve.cold_p50_ms", "ms");
    ("replay.map_s", "s");
    ("replay.bucket_s", "s");
    ("replay.shard_s", "s");
    ("replay.shard_max_s", "s");
    ("replay.render_s", "s");
    ("replay.merge_s", "s");
    ("replay.class.l1_maccess_s", "Macc/s");
    ("replay.class.l2_maccess_s", "Macc/s");
    ("replay.class.stream_maccess_s", "Macc/s");
    ("replay.class.pingpong_maccess_s", "Macc/s");
    ("replay.l1_hit_rate", "ratio");
    ("replay.l2_hit_rate", "ratio");
    ("replay.l3_hit_rate", "ratio");
    ("replay.inval_per_kacc", "count");
    ("replay.c2c_per_kacc", "count");
    ("replay.wb_per_kacc", "count");
    ("replay.minor_words_per_access", "words");
    ("replay.serial_maccess_s", "Macc/s");
    ("replay.maccess_s", "Macc/s");
    ("replay.csv_maccess_s", "Macc/s");
    ("sim.workload_s", "s");
    ("sim.engine_s", "s");
    ("sim.cell_max_s", "s");
    ("sim.l1_hit_rate", "ratio");
    ("sim.l2_hit_rate", "ratio");
    ("sim.l3_hit_rate", "ratio");
    ("sim.mem_per_kinstr", "count");
    ("sim.dram_row_hit_rate", "ratio");
    ("sim.c2c_per_kinstr", "count");
    ("sim.minor_words_per_instr", "words");
  ]

(* The generated inputs of a workload, one item per line: what the
   determinism tests compare across seeds. *)
let dump name seed ~seconds =
  match name with
  | "serve" ->
      let st = Inputs.serve_stream ~seconds seed in
      Array.iteri
        (fun k t -> Printf.printf "%s %s\n" (Inputs.tier_name t) st.lines.(k))
        st.tiers;
      Array.iter (Printf.printf "repeat %d\n") st.warm
  | "replay" ->
      let recs, cls = Inputs.replay_trace ~n:W_replay.n_accesses seed in
      Array.iteri
        (fun i (tid, write, addr) ->
          Printf.printf "%s %d %c 0x%x\n"
            (Inputs.class_name cls.(i / Inputs.block))
            tid (if write then 'W' else 'R') addr)
        recs
  | _ ->
      let p = W_study.params seed in
      Printf.printf "instructions %d seed %Ld\n" p.total_instructions p.seed

let usage () =
  prerr_endline
    "usage: perfbench --workload study|replay|serve --seed N --seconds S \
     --trace 0|1 [--work DIR] [--serve-bin PATH]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let probe = List.mem "--probe-setup" args in
  let args = List.filter (( <> ) "--probe-setup") args in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k d = Option.value ~default:d (List.assoc_opt k o) in
  let name = get "workload" "" in
  let w = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
  let int k d = match int_of_string_opt (get k d) with Some x -> x | None -> usage () in
  let work = get "work" "_perfbench" in
  Measure.mkdir_p work;
  let cfg =
    {
      seed = int "seed" (string_of_int default_seed);
      seconds = float_of_int (int "seconds" "10");
      traced = int "trace" "0" = 1;
      work;
      serve_bin = get "serve-bin" "cacti_serve";
    }
  in
  if List.mem_assoc "dump-inputs" o then begin
    dump name cfg.seed ~seconds:cfg.seconds;
    exit 0
  end;
  if probe then begin
    w.probe cfg;
    print_endline "ready";
    exit 0
  end;
  let out = w.run cfg in
  let failed_checks = List.filter (fun (_, ok) -> not ok) out.checks in
  let correct = failed_checks = [] in
  let attempted = max 1 (Array.length out.ops) in
  let failed = if correct then 0 else attempted in
  let ms x = 1e3 *. x in
  let n_ops = Array.length out.ops in
  let e2e =
    [
      l "setup_s" "s" (Measure.median out.setup);
      l "peak_rss_mb" "MB" out.rss_mb;
      l "ops_per_s" "1/s" (float_of_int n_ops /. out.window_s);
      l "op_p50_ms" "ms" (ms (Measure.median out.ops));
      l "op_tail_ms" "ms" (ms (Measure.percentile w.tail_q out.ops));
    ]
  in
  let metrics =
    if not cfg.traced then e2e
    else
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun m -> m.lname = name) out.layers with
          | Some m -> m
          | None -> l name unit 0.)
        per_layer
  in
  let metrics_json =
    J.Obj
      (List.map
         (fun m -> (m.lname, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit) ]))
         metrics)
  in
  let counts =
    [
      ("ops", J.Int n_ops);
      ("window_s", J.num out.window_s);
      ("setup_samples", J.Int (Array.length out.setup));
      ("tail_percentile", J.num (100. *. w.tail_q));
      ("beyond_tail", J.Int (Measure.beyond w.tail_q out.ops));
      ( "op_quantiles_ms",
        J.Obj
          (List.map
             (fun q -> (Printf.sprintf "p%g" (100. *. q), J.num (ms (Measure.percentile q out.ops))))
             [ 0.5; 0.9; 0.95; 0.99; 0.999 ]) );
    ]
  in
  let record =
    J.Obj
      ([
         ("workload", J.String name);
         ("seed", J.Int cfg.seed);
         ("seconds", J.num cfg.seconds);
         ("trace", J.Bool cfg.traced);
         ("host", Measure.host_fingerprint ~profile:"release");
         ("sample_counts", J.Obj counts);
         ("checks", J.Obj (List.map (fun (k, v) -> (k, J.Bool v)) out.checks));
         ("error_rate", J.num (float_of_int failed /. float_of_int attempted));
         ("metrics", metrics_json);
       ]
      @ out.record)
  in
  let rec_path =
    Filename.concat work
      (Printf.sprintf "record-%s-%d-%d.json" name cfg.seed (if cfg.traced then 1 else 0))
  in
  let oc = open_out rec_path in
  output_string oc (J.to_string_pretty record);
  output_char oc '\n';
  close_out oc;
  List.iter (fun (k, _) -> Printf.printf "check failed: %s\n" k) failed_checks;
  List.iter
    (fun m ->
      let extra =
        if m.lname = "op_tail_ms" then
          Printf.sprintf "  (p%g, %d of %d samples beyond)" (100. *. w.tail_q)
            (Measure.beyond w.tail_q out.ops) n_ops
        else if m.lname = "op_p50_ms" || m.lname = "ops_per_s" then
          Printf.sprintf "  (%d ops)" n_ops
        else if m.lname = "setup_s" then
          Printf.sprintf "  (median of %d)" (Array.length out.setup)
        else ""
      in
      Printf.printf "%-36s %.6g %s%s\n" m.lname m.value m.unit extra)
    metrics;
  (match List.assoc_opt "validation_error" out.record with
  | Some v -> Printf.printf "validation error vs published: %s\n" (J.to_string v)
  | None -> ());
  Printf.printf "run record: %s\n" rec_path;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics_json);
          ]))
