(* The solver, reached through its public calls: one cold solve of a
   spec, the same solve decomposed layer by layer (the solver rows of a
   traced run), and the checks on Table 3's components and the three
   validation points. *)

open Cacti
open Common
module P = Cacti_server.Protocol
module J = Cacti_util.Jsonx
module D = Cacti_util.Diag

type solved =
  | Rc of Cache_model.t
  | Rr of Ram_model.t
  | Rm of Mainmem.t

let solve_item (it : Inputs.item) =
  let params = it.params in
  match it.spec with
  | P.Cache s ->
      Result.map (fun (c, _) -> Rc c) (Cache_model.solve_diag ~jobs:1 ~params s)
  | P.Ram s ->
      Result.map (fun (r, _) -> Rr r) (Ram_model.solve_diag ~jobs:1 ~params s)
  | P.Mainmem c ->
      Result.map (fun (m, _) -> Rm m) (Mainmem.solve_diag ~jobs:1 ~params c)

let solution_json = function
  | Rc c -> P.cache_solution c
  | Rr r -> P.ram_solution r
  | Rm m -> P.mainmem_solution m

(* Solutions carry NaN fields (unbounded DRAM timings), so identity is
   [compare], not [=]. *)
let same a b = compare a b = 0

(* ------------------------ layer decomposition ----------------------- *)

(* The array specs a solve sweeps, derived by Array_spec's documented
   mapping (data array: sets rows of 8·B·A bits, one block out; tag
   array: sets rows of A tag entries; main-memory bank: pages; RAM:
   8-word rows), with the grid bounds the models use. *)
let arrays (it : Inputs.item) =
  let pen s =
    { s with
      Cacti_array.Array_spec.max_repeater_delay_penalty =
        it.params.Opt_params.max_repeater_delay_penalty }
  in
  match it.spec with
  | P.Cache s ->
      let sets = Cache_spec.sets_per_bank s in
      let data =
        Cacti_array.Array_spec.create ~ram:s.ram ~tech:s.tech ~sleep_tx:s.sleep_tx
          ~n_rows:sets ~row_bits:(8 * s.block_bytes * s.assoc)
          ~output_bits:
            (match s.access_mode with
            | Normal | Sequential -> 8 * s.block_bytes
            | Fast -> 8 * s.block_bytes * s.assoc)
          ()
      in
      let tag_row = s.assoc * (Cache_spec.tag_bits s + s.status_bits) in
      let tag =
        Cacti_array.Array_spec.create ~ram:s.tag_ram ~tech:s.tech
          ~sleep_tx:s.sleep_tx ~n_rows:sets ~row_bits:tag_row
          ~output_bits:tag_row ()
      in
      [ (pen data, 64, 64); (pen tag, 64, 64) ]
  | P.Ram s ->
      let row_bits = s.word_bits * 8 in
      let n_rows = max 1 (s.capacity_bytes / s.n_banks * 8 / row_bits) in
      [ ( pen
            (Cacti_array.Array_spec.create ~ram:s.ram ~tech:s.tech
               ~sleep_tx:s.sleep_tx ~n_rows ~row_bits ~output_bits:s.word_bits
               ()),
          64, 64 ) ]
  | P.Mainmem c ->
      [ ( pen
            (Cacti_array.Array_spec.create ~ram:c.ram ~tech:c.tech
               ~page_bits:c.page_bits
               ~n_rows:(c.capacity_bits / c.n_banks / c.page_bits)
               ~row_bits:c.page_bits ~output_bits:(c.io_bits * c.prefetch) ()),
          128, 256 ) ]

let banks = function
  | Rc c -> [ c.Cache_model.data; c.tag ]
  | Rr r -> [ r.Ram_model.bank ]
  | Rm m -> [ m.Mainmem.bank ]

let bound_policy (p : Opt_params.t) =
  let w = p.weights in
  {
    Cacti_array.Bank.acctime_pct = p.max_acctime_pct;
    energy_only =
      w.w_dynamic > 0. && w.w_leakage = 0. && w.w_cycle = 0.
      && w.w_interleave = 0.;
  }

type layer_acc = {
  mutable candidates : int;
  mutable screened : int;
  mutable evaluated : int;
  mutable pruned : int;
  mutable words : float;
  mutable solves : int;
  mutable layer_ok : bool;
}

(* Re-run one solve's sweeps cold through the public layer calls,
   recording a span around each, and check the winners are the banks
   the full solve selected. *)
let decompose tr acc ~op it solved =
  let open Cacti_array in
  let params = it.Inputs.params in
  List.iter2
    (fun (spec, max_ndwl, max_ndbl) expect ->
      Solve_cache.clear ();
      let span name f = Measure.Span.with_ tr ~op name f in
      let ((surv, _, _, _) as screened) =
        span "solver.screen" (fun () -> Mat.screen ~max_ndwl ~max_ndbl ~spec ())
      in
      let w0 = Gc.minor_words () in
      let sw =
        span "solver.sweep" (fun () ->
            Bank.enumerate_soa ~prune:params.max_area_pct
              ~bound:(bound_policy params)
              ~mat_cache:(Solve_cache.mat_memo_here ()) ~max_ndwl ~max_ndbl
              ~screened spec)
      in
      let words = Gc.minor_words () -. w0 in
      let win =
        span "solver.optimize" (fun () ->
            Optimizer.select_soa_result ~params sw.Bank.sw_soa)
      in
      (match win with
      | Ok i ->
          let b = span "solver.materialize" (fun () -> Bank.sweep_bank sw i) in
          if not (same b expect) then acc.layer_ok <- false
      | Error _ -> acc.layer_ok <- false);
      let c = sw.Bank.sw_counts in
      acc.candidates <- acc.candidates + c.D.candidates;
      acc.screened <- acc.screened + List.length surv;
      acc.evaluated <- acc.evaluated + c.D.evaluated;
      acc.pruned <- acc.pruned + c.D.area_pruned + c.D.bound_pruned;
      acc.words <- acc.words +. words)
    (arrays it) (banks solved);
  acc.solves <- acc.solves + 1

let solver_layers tr acc =
  let per x = if acc.solves = 0 then 0. else x /. float_of_int acc.solves in
  let ipc n = per (float_of_int n) in
  [
    l "solver.screen_s" "s" (per (Measure.Span.total tr "solver.screen"));
    l "solver.sweep_s" "s" (per (Measure.Span.total tr "solver.sweep"));
    l "solver.optimize_s" "s" (per (Measure.Span.total tr "solver.optimize"));
    l "solver.materialize_s" "s"
      (per (Measure.Span.total tr "solver.materialize"));
    l "solver.candidates" "count" (ipc acc.candidates);
    l "solver.screened" "count" (ipc acc.screened);
    l "solver.evaluated" "count" (ipc acc.evaluated);
    l "solver.pruned" "count" (ipc acc.pruned);
    l "solver.eval_ratio" "ratio" (Measure.ratio acc.evaluated acc.screened);
    l "solver.minor_words_per_eval" "words"
      (if acc.evaluated = 0 then 0. else acc.words /. float_of_int acc.evaluated);
  ]

let new_acc () =
  { candidates = 0; screened = 0; evaluated = 0; pruned = 0; words = 0.;
    solves = 0; layer_ok = true }

(* Cold-solve [items] and decompose each through the layer calls: the
   solver rows of workloads whose own ops reach the solver indirectly. *)
let layer_pass tr acc items =
  let on = tr.Measure.Span.on in
  tr.on <- true;
  List.iteri
    (fun op it ->
      Solve_cache.clear ();
      match solve_item it with
      | Ok s -> decompose tr acc ~op it s
      | Error _ -> acc.layer_ok <- false)
    items;
  tr.on <- on

(* ---------------------------- validation ---------------------------- *)

(* Model-vs-published error of the three validation points, with the
   reference values of bench/main.ml (Table 2, Figure 1). *)
let validation_errors solved =
  let err actual model = Cacti_util.Floatx.rel_err ~actual ~model in
  let find n = List.assoc_opt n solved in
  let num x = J.num x in
  List.filter_map Fun.id
    [
      (match find "val.xeon_l3_65nm" with
      | Some (Rc c) ->
          Some
            ( "val.xeon_l3_65nm",
              J.Obj
                [
                  ("access", num (err 3.9e-9 c.Cache_model.t_access));
                  ("area", num (err 130e-6 c.area));
                  ("leakage", num (err 2.5 c.p_leakage));
                ] )
      | _ -> None);
      (match find "val.sparc_l2_90nm" with
      | Some (Rc c) ->
          Some
            ( "val.sparc_l2_90nm",
              J.Obj
                [
                  ("access", num (err 2.4e-9 c.Cache_model.t_access));
                  ("area", num (err 45e-6 c.area));
                ] )
      | _ -> None);
      (match find "val.ddr3_1g_78nm" with
      | Some (Rm m) ->
          Some
            ( "val.ddr3_1g_78nm",
              J.Obj
                [
                  ("area_efficiency", num (err 0.56 m.Mainmem.area_efficiency));
                  ("t_rcd", num (err 13.1e-9 m.t_rcd));
                  ("t_cas", num (err 13.1e-9 m.t_cas));
                  ("t_rc", num (err 52.5e-9 m.t_rc));
                  ("e_activate", num (err 3.1e-9 m.e_activate));
                  ("e_read", num (err 1.6e-9 m.e_read));
                  ("e_write", num (err 1.8e-9 m.e_write));
                  ("p_refresh", num (err 3.5e-3 m.p_refresh));
                ] )
      | _ -> None);
    ]

(* The Table 3 entries must be exactly what Study builds for its six
   configurations (checked after the timed window: Study memoizes). *)
let study_matches solved =
  let t32 = Cacti_tech.Technology.at_nm 32. in
  let cache n v =
    match List.assoc_opt n solved with Some (Rc c) -> same c v | _ -> false
  in
  let l3 n k =
    match Mcsim.Study.solve_l3 t32 k with Some v -> cache n v | None -> false
  in
  cache "t3.l1_32k" (Mcsim.Study.solve_l1 t32)
  && cache "t3.l2_1m" (Mcsim.Study.solve_l2 t32)
  && l3 "t3.l3_sram_24m" Mcsim.Study.Sram_l3
  && l3 "t3.l3_lp_ed_48m" Mcsim.Study.Lp_dram_ed
  && l3 "t3.l3_lp_c_72m" Mcsim.Study.Lp_dram_c
  && l3 "t3.l3_cm_ed_96m" Mcsim.Study.Cm_dram_ed
  && l3 "t3.l3_cm_c_192m" Mcsim.Study.Cm_dram_c
  &&
  match List.assoc_opt "t3.mm_ddr4_8g" solved with
  | Some (Rm m) -> same m (Mcsim.Study.solve_mem t32)
  | _ -> false

(* ------------------------- fixed-suite check ------------------------- *)

(* Solve Table 3's eight components and the three validation points once
   each, cold, and check them: every solve succeeds, the Table 3 entries
   are what Study builds, and for the default seed the solutions' digests
   match the stored ones.  Returns the checks and the run-record fields,
   with the validation points' model-vs-published error. *)
let check_fixed_suite cfg =
  let suite = Inputs.fixed_suite () in
  let solved =
    List.filter_map
      (fun (it : Inputs.item) ->
        Solve_cache.clear ();
        match solve_item it with
        | Ok s -> Some (it.name, s)
        | Error ds ->
            prerr_endline (it.name ^ ": " ^ D.render ds);
            None)
      suite
  in
  let complete = List.length solved = List.length suite in
  let digests =
    List.map (fun (name, s) -> (name, hex (J.to_string (solution_json s)))) solved
  in
  ( [
      ("fixed_suite_solved", complete);
      ("table3_matches_study", complete && study_matches solved);
    ]
    @ (if complete then check_digests cfg ~workload:"solutions" digests else []),
    [
      ("solution_digests", digests_json digests);
      ("validation_error", J.Obj (validation_errors solved));
    ] )
