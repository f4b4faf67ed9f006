(* Seeded input generators.  Every input of every workload is a pure
   function of the seed; generating it is not program time. *)

open Cacti
module P = Cacti_server.Protocol
module J = Cacti_util.Jsonx
module Rng = Cacti_util.Rng

(* One RNG stream per (seed, purpose), so adding a draw to one generator
   never shifts another's. *)
let rng seed salt =
  Rng.create (Int64.of_int ((seed * 1_000_003) + Hashtbl.hash salt))

let pick r a = a.(Rng.int r (Array.length a))

(* One technology value per node: building one interpolates the device
   tables, far too slow to repeat per generated spec. *)
let tech =
  let memo = Hashtbl.create 8 in
  fun nm ->
    match Hashtbl.find_opt memo nm with
    | Some t -> t
    | None ->
        let t = Cacti_tech.Technology.at_nm nm in
        Hashtbl.add memo nm t;
        t

type item = { name : string; spec : P.spec; params : Opt_params.t }

let request ?(id = J.Null) it =
  P.encode_request
    (P.Solve
       { id; spec = it.spec; params = { P.default_params with opt = it.params } })

let item_key it = J.to_canonical_string (request it)

(* ------------------------- random specs ----------------------------- *)

(* Banks with too few sets leave the tag array, and DRAM banks with too
   many leave the data array, no valid organization; the generated specs
   stay clear of both corners, and of direct-mapped and wider-than-16-way
   caches. *)
let solvable (s : Cache_spec.t) =
  let sets = Cache_spec.sets_per_bank s in
  sets >= 256 && sets <= 32768 && s.assoc >= 2 && s.assoc <= 16

let kinds = [| `Sram; `Lp; `Comm; `Ram |]

(* Capacity range of each kind: the smallest, as a power of 2, and the
   number of sizes. *)
let cap_range = function
  | `Sram -> (14, 6) (* 16 KB .. 512 KB *)
  | `Lp -> (20, 5) (* 1 MB .. 16 MB *)
  | `Comm -> (20, 6) (* 1 MB .. 32 MB *)
  | `Ram -> (13, 8) (* 8 KB .. 1 MB *)

let rec draw_cache r ~nm ~cap ~ram =
  let assoc = pick r [| 2; 4; 8; 16 |] in
  let n_banks = pick r [| 1; 2; 4 |] in
  let block_bytes = pick r [| 32; 64; 128 |] in
  match
    Cache_spec.create_result ~tech:(tech nm) ~capacity_bytes:cap ~assoc
      ~n_banks ~block_bytes ~ram ()
  with
  | Ok s when solvable s -> P.Cache s
  | _ -> draw_cache r ~nm ~cap ~ram

let rec draw_ram r ~nm ~cap =
  let word_bits = pick r [| 32; 64; 128 |] in
  let n_banks = pick r [| 1; 2 |] in
  match
    Ram_model.validate
      {
        Ram_model.capacity_bytes = cap;
        word_bits;
        n_banks;
        ram = Cacti_tech.Cell.Sram;
        sleep_tx = false;
        tech = tech nm;
      }
  with
  | Ok s -> P.Ram s
  | Error _ -> draw_ram r ~nm ~cap

(* The [k]-th fresh spec at node [nm].  Its kind and capacity follow from
   [k] (each kind in turn, and each kind's sizes in turn), so that every
   seed draws the same mix of array sizes and the server holds about the
   same memory for it.  The seed picks the associativity, bank count and
   block size, or the RAM's word width and bank count. *)
let draw r ~nm k =
  let kind = kinds.(k mod Array.length kinds) in
  let lo, n = cap_range kind in
  let cap = 1 lsl (lo + (k / Array.length kinds mod n)) in
  match kind with
  | `Sram -> draw_cache r ~nm ~cap ~ram:Cacti_tech.Cell.Sram
  | `Lp -> draw_cache r ~nm ~cap ~ram:Cacti_tech.Cell.Lp_dram
  | `Comm -> draw_cache r ~nm ~cap ~ram:Cacti_tech.Cell.Comm_dram
  | `Ram -> draw_ram r ~nm ~cap

(* --------------------------- fixed suite ---------------------------- *)

let mib n = n * 1024 * 1024

let cache ?(assoc = 8) ?(n_banks = 1) ?(ram = Cacti_tech.Cell.Sram)
    ?(sleep_tx = false) nm cap =
  P.Cache
    (Cache_spec.create ~tech:(tech nm) ~capacity_bytes:cap ~assoc ~n_banks ~ram
       ~sleep_tx ())

(* Table 3's eight 32 nm components (the Section 4.1 design points, as
   Study builds them) and the three validation points. *)
let fixed_suite () =
  let l3 cap assoc ram params =
    cache ~assoc ~n_banks:8 ~ram ~sleep_tx:(ram = Cacti_tech.Cell.Sram) 32.
      (mib cap), params
  in
  let it name (spec, params) = { name; spec; params } in
  [
    it "t3.l1_32k" (cache 32. (32 * 1024), Opt_params.default);
    it "t3.l2_1m" (cache 32. (mib 1), Opt_params.default);
    it "t3.l3_sram_24m" (l3 24 12 Sram Opt_params.default);
    it "t3.l3_lp_ed_48m" (l3 48 12 Lp_dram Opt_params.energy_optimal);
    it "t3.l3_lp_c_72m" (l3 72 18 Lp_dram Opt_params.area_optimal);
    it "t3.l3_cm_ed_96m" (l3 96 12 Comm_dram Opt_params.energy_optimal);
    it "t3.l3_cm_c_192m" (l3 192 24 Comm_dram Opt_params.area_optimal);
    it "t3.mm_ddr4_8g"
      ( P.Mainmem
          (Mainmem.create ~tech:(tech 32.)
             ~capacity_bits:(8 * 1024 * 1024 * 1024)
             ~page_bits:8192 ~prefetch:8 ~burst:8 ~interface:Mainmem.ddr4 ()),
        Opt_params.area_optimal );
    it "val.xeon_l3_65nm"
      ( cache ~assoc:16 ~sleep_tx:true 65. (mib 16),
        { Opt_params.default with max_area_pct = 1.0; max_acctime_pct = 2.0 } );
    it "val.sparc_l2_90nm" (cache ~assoc:4 90. (mib 4), Opt_params.delay_optimal);
    it "val.ddr3_1g_78nm"
      ( P.Mainmem
          (Mainmem.create ~tech:(tech 78.) ~capacity_bits:(1024 * 1024 * 1024)
             ~page_bits:8192 ~interface:Mainmem.ddr3 ()),
        Opt_params.area_optimal );
  ]

(* ---------------------------- serve stream -------------------------- *)

type tier = Warm | Near | Cold

let tier_name = function Warm -> "warm" | Near -> "near" | Cold -> "cold"

(* The serve traffic: repeats of a warmed base set, as fast as the
   connections go, plus new design points arriving on a fixed schedule,
   4 neighbours of earlier specs to 1 fresh spec.  The schedule, not the
   request count, sets the new points: cacti_serve's default memo tables
   keep ~0.3 MB per distinct spec solved, so tying them to throughput
   would make a faster server look fatter (at 10% of requests a 20 s run
   grew the server past 1.4 GB). *)
let n_base = 128
let distinct_per_s = 10.
let near_target = 0.8

type stream = {
  items : item array;  (** base set, then the scheduled new specs in order *)
  tiers : tier array;  (** [Warm] for the base set *)
  warm : int array;  (** order of the base-set repeats, cycled *)
  lines : string array;  (** request line of each item *)
}

(* The node of [t] moved by 1 nm, within 32 .. 90 nm. *)
let step_node r t =
  let nm = Float.round (Cacti_tech.Technology.feature_size t *. 1e9) in
  tech (Float.max 32. (Float.min 90. (nm +. if Rng.bool r then 1. else -1.)))

(* One axis of a spec moved by one step: capacity or associativity
   doubled or halved, or the node moved by 1 nm.  [None] when the move
   leaves the valid space. *)
let neighbour r (it : item) =
  match it.spec with
  | P.Cache s -> (
      let s' =
        match Rng.int r 3 with
        | 0 ->
            let cap = s.Cache_spec.capacity_bytes in
            Cache_spec.create_result ~tech:s.tech
              ~capacity_bytes:(if Rng.bool r then cap * 2 else cap / 2)
              ~assoc:s.assoc ~n_banks:s.n_banks ~block_bytes:s.block_bytes
              ~ram:s.ram ()
        | 1 ->
            let a = s.Cache_spec.assoc in
            Cache_spec.create_result ~tech:s.tech
              ~capacity_bytes:s.capacity_bytes
              ~assoc:(if Rng.bool r then a * 2 else max 1 (a / 2))
              ~n_banks:s.n_banks ~block_bytes:s.block_bytes ~ram:s.ram ()
        | _ ->
            Cache_spec.create_result ~tech:(step_node r s.tech)
              ~capacity_bytes:s.capacity_bytes ~assoc:s.assoc
              ~n_banks:s.n_banks ~block_bytes:s.block_bytes ~ram:s.ram ()
      in
      match s' with
      | Ok s' when s'.capacity_bytes <= mib 32 && solvable s' ->
          Some { it with spec = P.Cache s' }
      | _ -> None)
  | P.Ram s -> (
      let s' =
        if Rng.bool r then
          { s with Ram_model.capacity_bytes =
                     (if Rng.bool r then s.capacity_bytes * 2
                      else s.capacity_bytes / 2) }
        else { s with tech = step_node r s.tech }
      in
      match Ram_model.validate s' with
      | Ok s' when s'.capacity_bytes <= mib 2 && s'.capacity_bytes >= 4096 ->
          Some { it with spec = P.Ram s' }
      | _ -> None)
  | P.Mainmem _ -> None

let serve_stream ~seconds seed =
  let r = rng seed "serve" in
  let seen = Hashtbl.create 4096 in
  let n_new = int_of_float (Float.ceil (seconds *. distinct_per_s)) + 16 in
  let items = Array.make (n_base + n_new) (List.hd (fixed_suite ())) in
  let n_items = ref 0 in
  let add it =
    Hashtbl.replace seen (item_key it) ();
    items.(!n_items) <- it;
    incr n_items
  in
  (* A sweep's space: any whole node from 32 to 90 nm, and the kinds and
     ranges of [draw]. *)
  let n_fresh = ref 0 in
  let rec fresh tries =
    if tries > 10_000 then failwith "serve_stream: spec space exhausted";
    let it =
      { name = "serve";
        spec = draw r ~nm:(float_of_int (32 + Rng.int r 59)) !n_fresh;
        params = Opt_params.default }
    in
    if Hashtbl.mem seen (item_key it) then fresh (tries + 1)
    else begin
      incr n_fresh;
      it
    end
  in
  let rec near tries =
    match neighbour r items.(Rng.int r !n_items) with
    | Some it when not (Hashtbl.mem seen (item_key it)) -> Some it
    | _ -> if tries >= 50 then None else near (tries + 1)
  in
  for _ = 1 to n_base do add (fresh 0) done;
  let tiers =
    Array.init (n_base + n_new) (fun i ->
        if i < n_base then Warm
        else if Rng.float r 1.0 < near_target then
          match near 0 with
          | Some it -> add it; Near
          | None -> add (fresh 0); Cold
        else begin
          add (fresh 0);
          Cold
        end)
  in
  {
    items;
    tiers;
    warm = Array.init 65536 (fun _ -> Rng.int r n_base);
    lines = Array.map (fun it -> J.to_string (request it)) items;
  }

(* ---------------------------- replay trace -------------------------- *)

type cls = L1_res | L2_res | Stream | Pingpong

let classes = [| L1_res; L2_res; Stream; Pingpong |]

let class_name = function
  | L1_res -> "l1"
  | L2_res -> "l2"
  | Stream -> "stream"
  | Pingpong -> "pingpong"

let class_index = function L1_res -> 0 | L2_res -> 1 | Stream -> 2 | Pingpong -> 3
let block = 4096
let n_threads = 4

(* [n] accesses cycling through the four locality classes in blocks of
   [block]; returns the records and the class of each block.  Regions
   are disjoint: L1-resident 16 KB and L2-resident 128 KB private per
   thread; a 64 MB region each thread sweeps one access per 4 lines and
   writes on 1 access in 4, so its footprint passes every level and
   dirty lines reach memory; and 64 shared lines every thread writes
   half the time. *)
let replay_trace ~n seed =
  let r = rng seed "replay" in
  let line = 64 in
  let priv_l1 t = (1 lsl 30) + (t * 16 * 1024) in
  let priv_l2 t = (1 lsl 31) + (t * 128 * 1024) in
  let stream_base = 1 lsl 33 and stream_bytes = 64 * 1024 * 1024 in
  let shared = 1 lsl 34 in
  let cursor = Array.make n_threads 0 in
  let recs = Array.make n (0, false, 0) in
  let n_blocks = (n + block - 1) / block in
  let block_cls = Array.init n_blocks (fun b -> classes.(b mod 4)) in
  for i = 0 to n - 1 do
    let tid = Rng.int r n_threads in
    let word = 8 * Rng.int r 8 in
    let rec_ =
      match block_cls.(i / block) with
      | L1_res ->
          (tid, Rng.int r 8 = 0, priv_l1 tid + (line * Rng.int r 256) + word)
      | L2_res ->
          (tid, Rng.int r 8 = 0, priv_l2 tid + (line * Rng.int r 2048) + word)
      | Stream ->
          let c = cursor.(tid) in
          cursor.(tid) <- c + 1;
          ( tid,
            Rng.int r 4 = 0,
            stream_base + (tid * stream_bytes / n_threads)
            + (c * 256 mod (stream_bytes / n_threads)) )
      | Pingpong -> (tid, Rng.bool r, shared + (line * Rng.int r 64) + word)
    in
    recs.(i) <- rec_
  done;
  (recs, block_cls)

let write_trace path recs =
  let oc = open_out_bin path in
  let w = Mcreplay.Trace_io.open_writer Mcreplay.Trace_io.Binary oc in
  Array.iter
    (fun (tid, write, addr) -> Mcreplay.Trace_io.write_record w ~tid ~write ~addr)
    recs;
  Mcreplay.Trace_io.close_writer w;
  close_out oc
