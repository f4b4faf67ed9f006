type state = I | S | E | M

let state_to_int = function I -> 0 | S -> 1 | E -> 2 | M -> 3
let state_of_int = function 0 -> I | 1 -> S | 2 -> E | _ -> M

(* One block per set, [ways | stamps | meta], 2 * assoc + 1 words:
   - a way word packs [line * 4 + state]; -1 = invalid;
   - a stamp is the way's policy metadata (LRU recency stamp / QLRU age /
     MRU bit; unused by Tree-PLRU), stale on invalid ways: every policy
     reads it only for valid ways;
   - [meta] is the set's policy word (Tree-PLRU direction bits / QLRU R1
     round-robin pointer).
   Every set starts at the shared [empty] block (all ways invalid, metadata
   0) and gets its own copy on its first fill.  Nothing writes to [empty]:
   a lookup in it finds no way, and only a found way or an owned block is
   written.  So state grows with the sets a run touches, not with
   capacity. *)
type t = {
  assoc : int;
  sets : int;
  set_mask : int;
  table : int array array;  (** per-set block, or [empty] *)
  empty : int array;
  policy : Policy.t;
  kind : int;  (** [Policy.kind_int policy], hoisted for dispatch *)
  log2_assoc : int;  (** Tree-PLRU tree depth; -1 for other policies *)
  q_h2 : int;
  q_h3 : int;
  q_m : int;
  q_r : int;
  q_u : int;
  mutable clock : int;
}

let invalid = -1
let pack line state = (line lsl 2) lor state
let line_of w = w lsr 2
let state_int_of w = w land 3

let create ?(assoc = 8) ?(policy = Policy.Lru) ~lines () =
  if lines <= 0 || assoc <= 0 then invalid_arg "Cache_sim.create";
  if lines mod assoc <> 0 then
    invalid_arg "Cache_sim.create: lines not divisible by assoc";
  let sets_raw = lines / assoc in
  (* Round the set count DOWN to a power of two and widen associativity to
     preserve capacity; a geometry the widened sets cannot hold exactly is
     refused rather than silently shrunk. *)
  let sets = if Cacti_util.Floatx.is_pow2 sets_raw then sets_raw
    else Cacti_util.Floatx.pow2_ge sets_raw / 2 in
  if lines mod sets <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cache_sim.create: %d lines at %d-way do not split into %d sets \
          (%d rounded down to a power of two)" lines assoc sets sets_raw);
  let assoc = lines / sets in
  let kind = Policy.kind_int policy in
  if kind = 1 && not (Cacti_util.Floatx.is_pow2 assoc) then
    invalid_arg
      (Printf.sprintf
         "Cache_sim.create: Tree-PLRU needs a power-of-two associativity \
          (got %d)" assoc);
  let q_h2, q_h3, q_m, q_r, q_u = Policy.qlru_params policy in
  let empty =
    Array.init ((2 * assoc) + 1) (fun j -> if j < assoc then invalid else 0)
  in
  {
    assoc;
    sets;
    set_mask = sets - 1;
    table = Array.make sets empty;
    empty;
    policy;
    kind;
    log2_assoc = (if kind = 1 then Cacti_util.Floatx.clog2 assoc else -1);
    q_h2;
    q_h3;
    q_m;
    q_r;
    q_u;
    clock = 0;
  }

let lines t = t.sets * t.assoc
let assoc t = t.assoc
let sets t = t.sets
let policy t = t.policy

type lookup = Hit of state | Miss

(* [set_mask] keeps the index inside [table] for any line. *)
let block t line = Array.unsafe_get t.table (line land t.set_mask)

(* Top-level recursion on purpose: a local [let rec] capturing [b]/[line]
   would be closure-converted and allocate on every lookup in classic
   (non-flambda) mode. *)
let rec find_way b line i last =
  if i > last then -1
  else if Array.unsafe_get b i lsr 2 = line then i
  else find_way b line (i + 1) last

(* [find_way] only returns -1 or a way index below [assoc], so the accessors
   below index the block unsafely at it (this path runs once per replayed
   access per level). *)
let probe_int t line =
  let b = block t line in
  let i = find_way b line 0 (t.assoc - 1) in
  if i < 0 then 0 else state_int_of (Array.unsafe_get b i)

let probe t line = state_of_int (probe_int t line)

(* ---------------- Tree-PLRU (kind 1) ----------------

   The set's metadata word holds one direction bit per internal node of a
   balanced binary tree over the ways; the bit's position is the node's
   1-based heap index (root = 1, children of [n] = [2n], [2n+1]).  Bit
   value 0 steers the victim walk left, 1 right. *)

(* Flip the root-path bits to point away from way [i] just touched. *)
let plru_point_away t b i =
  let mi = 2 * t.assoc in
  let m = ref b.(mi) in
  let n = ref 1 in
  for lvl = t.log2_assoc - 1 downto 0 do
    let side = (i lsr lvl) land 1 in
    if side = 0 then m := !m lor (1 lsl !n)
    else m := !m land lnot (1 lsl !n);
    n := (2 * !n) + side
  done;
  b.(mi) <- !m

let plru_victim t b =
  let m = b.(2 * t.assoc) in
  let n = ref 1 in
  while !n < t.assoc do
    n := (2 * !n) + ((m lsr !n) land 1)
  done;
  !n - t.assoc

(* ---------------- QLRU (kind 2) ----------------

   A valid way's stamp is its 2-bit age.  See Policy's doc for the
   H/M/R/U parameter semantics. *)

(* Age every valid way except [skip] by one, saturating at 3 (the U1/U2
   eager-aging step). *)
let qlru_age_others t b skip =
  let a = t.assoc in
  for j = 0 to a - 1 do
    if j <> skip && Array.unsafe_get b j >= 0 then begin
      let age = Array.unsafe_get b (a + j) in
      if age < 3 then Array.unsafe_set b (a + j) (age + 1)
    end
  done

let qlru_hit t b i =
  let age = Array.unsafe_get b (t.assoc + i) in
  Array.unsafe_set b (t.assoc + i)
    (if age <= 1 then 0 else if age = 2 then t.q_h2 else t.q_h3);
  if t.q_u = 2 then qlru_age_others t b i

(* Victim in a full set: raise all ages by the same amount so the oldest
   reaches 3, then pick per the R variant. *)
let qlru_victim t b =
  let a = t.assoc in
  let maxage = ref 0 in
  for j = a to (2 * a) - 1 do
    if Array.unsafe_get b j > !maxage then maxage := Array.unsafe_get b j
  done;
  if !maxage < 3 then begin
    let bump = 3 - !maxage in
    for j = a to (2 * a) - 1 do
      Array.unsafe_set b j (Array.unsafe_get b j + bump)
    done
  end;
  if t.q_r = 0 then begin
    let v = ref 0 in
    while b.(a + !v) <> 3 do incr v done;
    !v
  end
  else begin
    (* R1: cyclic scan from the per-set pointer; advance it past the
       victim. *)
    let p = b.(2 * a) in
    let v = ref (-1) in
    let k = ref 0 in
    while !v < 0 do
      let j = (p + !k) mod a in
      if b.(a + j) = 3 then v := j else incr k
    done;
    b.(2 * a) <- (!v + 1) mod a;
    !v
  end

let qlru_insert t b i =
  Array.unsafe_set b (t.assoc + i) t.q_m;
  if t.q_u >= 1 then qlru_age_others t b i

(* ---------------- MRU / MRU_N (kinds 3, 4) ----------------

   A valid way's stamp is a one-bit "recently used" flag. *)

(* Set way [i]'s bit; when that saturates the set (every valid way marked),
   clear every other way's bit. *)
let mru_mark_and_reset t b i =
  let a = t.assoc in
  b.(a + i) <- 1;
  let saturated = ref true in
  for j = 0 to a - 1 do
    if Array.unsafe_get b j >= 0 && Array.unsafe_get b (a + j) = 0 then
      saturated := false
  done;
  if !saturated then
    for j = 0 to a - 1 do
      if j <> i then Array.unsafe_set b (a + j) 0
    done

(* Leftmost valid way with a clear bit; -1 when every bit is set (possible
   only under MRU_N, whose hits never reset). *)
let mru_victim t b =
  let a = t.assoc in
  let v = ref (-1) in
  let j = ref 0 in
  while !v < 0 && !j < a do
    if Array.unsafe_get b !j >= 0 && Array.unsafe_get b (a + !j) = 0 then
      v := !j
    else incr j
  done;
  !v

(* Unboxed access: -1 on miss, else the PRE-access state as an int
   (0=I unused, 1=S, 2=E, 3=M).  Updates recency; a write upgrades to M. *)
let access_int t ~line ~write =
  let b = block t line in
  let i = find_way b line 0 (t.assoc - 1) in
  if i < 0 then -1
  else begin
    (match t.kind with
    | 0 ->
        t.clock <- t.clock + 1;
        Array.unsafe_set b (t.assoc + i) t.clock
    | 1 -> plru_point_away t b i
    | 2 -> qlru_hit t b i
    | 3 -> mru_mark_and_reset t b i
    | _ -> Array.unsafe_set b (t.assoc + i) 1);
    let s = state_int_of (Array.unsafe_get b i) in
    if write && s <> 3 then Array.unsafe_set b i (pack line 3);
    s
  end

let access t ~line ~write =
  let s = access_int t ~line ~write in
  if s < 0 then Miss else Hit (state_of_int s)

type eviction = { line : int; state : state }

(* True LRU: the first invalid way, else the valid way with the smallest
   stamp (the first on ties), in one fused scan.  This is the historical
   default path; the engine golden tests pin its victim choices
   bit-for-bit. *)
let rec lru_victim b a i last victim best =
  if i > last then victim
  else if Array.unsafe_get b i < 0 then i
  else
    let s = Array.unsafe_get b (a + i) in
    if s < best then lru_victim b a (i + 1) last i s
    else lru_victim b a (i + 1) last victim best

let rec first_invalid b i last =
  if i > last then -1
  else if Array.unsafe_get b i < 0 then i
  else first_invalid b (i + 1) last

(* Unboxed fill: allocates [line] in [state] (an int), returning -1 when a
   free way was used, else the packed [victim_line * 4 + victim_state].
   The line must not already be present (the engine guarantees it: a fill
   only follows a miss). *)
let fill_packed t ~line ~state_int =
  let set = line land t.set_mask in
  let b =
    let b = Array.unsafe_get t.table set in
    if b != t.empty then b
    else begin
      let b = Array.copy t.empty in
      Array.unsafe_set t.table set b;
      b
    end
  in
  let a = t.assoc in
  let last = a - 1 in
  let i =
    if t.kind = 0 then lru_victim b a 0 last 0 max_int
    else
      (* Every other policy fills the leftmost invalid way first; the policy
         proper only chooses among valid lines of a full set. *)
      let inv = first_invalid b 0 last in
      if inv >= 0 then inv
      else
        match t.kind with
        | 1 -> plru_victim t b
        | 2 -> qlru_victim t b
        | _ -> (
            match mru_victim t b with
            | -1 ->
                (* MRU_N with every bit set: clear the set, evict way 0. *)
                Array.fill b a a 0;
                0
            | v -> v)
  in
  let evicted = Array.unsafe_get b i in
  Array.unsafe_set b i (pack line state_int);
  (match t.kind with
  | 0 ->
      t.clock <- t.clock + 1;
      Array.unsafe_set b (a + i) t.clock
  | 1 -> plru_point_away t b i
  | 2 -> qlru_insert t b i
  | _ -> mru_mark_and_reset t b i);
  evicted

let fill t ~line ~state =
  let ev = fill_packed t ~line ~state_int:(state_to_int state) in
  if ev < 0 then None
  else Some { line = line_of ev; state = state_of_int (state_int_of ev) }

let set_state_int t ~line s =
  let b = block t line in
  let i = find_way b line 0 (t.assoc - 1) in
  if i >= 0 then Array.unsafe_set b i (if s = 0 then invalid else pack line s)

let set_state t ~line s = set_state_int t ~line (state_to_int s)

let occupancy t =
  let n = ref 0 in
  Array.iter
    (fun b -> for j = 0 to t.assoc - 1 do if b.(j) >= 0 then incr n done)
    t.table;
  !n

(* Consed in set-then-way order, so the last dirty way of the last set heads
   the list; the reference-model property pins this order. *)
let dirty_lines t =
  let acc = ref [] in
  Array.iter
    (fun b ->
      for j = 0 to t.assoc - 1 do
        let w = b.(j) in
        if w >= 0 && state_int_of w = 3 then acc := line_of w :: !acc
      done)
    t.table;
  !acc
