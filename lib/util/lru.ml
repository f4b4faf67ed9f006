(* Mutex-guarded LRU memo table.

   Extracted from Solve_cache so every cache in the tree — selected-bank
   memo, mat sub-solutions, screen contexts, the serve layer's response
   cache — shares one audited implementation.  One mutex per table guards
   the hashtable, the hit/miss counters and the recency clock; values are
   expected to be immutable so a reference handed out under the lock stays
   valid after it is released. *)

type stats = { hits : int; misses : int }

type 'v entry = {
  value : 'v;
  mutable stamp : int;  (** last-use tick, for LRU eviction *)
}

type ('k, 'v) t = {
  table : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable tick : int;
  mutable cap : int option;
}

let create ?(size = 64) () =
  {
    table = Hashtbl.create size;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    tick = 0;
    cap = None;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

(* Evict least-recently-used entries until the table fits the cap.  A
   full scan per eviction is O(n), but evictions only happen on inserts
   past the cap and the cap is thousands at most — the scan is noise next
   to the work that produced the entry. *)
let enforce_cap_locked t =
  match t.cap with
  | None -> ()
  | Some c ->
      while Hashtbl.length t.table > c do
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, stamp) when stamp <= e.stamp -> acc
              | _ -> Some (k, e.stamp))
            t.table None
        in
        match victim with
        | Some (k, _) -> Hashtbl.remove t.table k
        | None -> ()
      done

let insert_locked t key value =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.table key { value; stamp = t.tick };
  enforce_cap_locked t

(* Counted lookup: a miss here is expected to be followed by a compute +
   [publish]. *)
let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.hits <- t.hits + 1;
          touch t e;
          Some e.value
      | None ->
          t.misses <- t.misses + 1;
          None)

(* Hit-only counted lookup: a hit bumps [hits] and refreshes recency, a
   miss moves nothing.  For a probe whose miss is followed by a counted
   [find] of the same key elsewhere, so every request is counted once and
   only one locked probe is paid per hit. *)
let find_hit t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.hits <- t.hits + 1;
          touch t e;
          Some e.value
      | None -> None)

(* Uncounted presence probe: no hit/miss bump, no recency touch — for
   callers (the pre-solver) that must not skew the hit-rate the real
   request stream reports. *)
let mem t key =
  Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)

(* First store wins: two racing misses of the same key both compute the
   (identical, deterministic) value; later hits share one copy.  The
   adopting lookup is not counted as a hit — the caller did compute.
   [Hashtbl.add], not [insert_locked]'s [replace]: the key was just
   probed absent under the same lock, and add skips replace's removal
   pass (this is the hot store of every cold sweep candidate). *)
let publish t key value =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          touch t e;
          e.value
      | None ->
          t.tick <- t.tick + 1;
          Hashtbl.add t.table key { value; stamp = t.tick };
          enforce_cap_locked t;
          value)

let memoize t key compute =
  match find t key with Some v -> v | None -> publish t key (compute ())

(* Unconditional replace (last store wins), for entries that are updated
   in place — e.g. a screen context re-instantiated for a new row count. *)
let put t key value =
  Mutex.protect t.lock (fun () -> insert_locked t key value)

let stats t =
  Mutex.protect t.lock (fun () -> { hits = t.hits; misses = t.misses })

let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let capacity t = Mutex.protect t.lock (fun () -> t.cap)

let set_capacity t ~what c =
  (match c with
  | Some c when c < 0 -> invalid_arg (Printf.sprintf "%s: negative cap" what)
  | _ -> ());
  Mutex.protect t.lock (fun () ->
      t.cap <- c;
      enforce_cap_locked t)

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0)

(* Entries in least-recently-used-first order (re-inserting in dump order
   reconstructs the LRU order). *)
let dump t =
  let entries =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k e acc -> (k, e.value, e.stamp) :: acc) t.table [])
  in
  List.sort (fun (_, _, a) (_, _, b) -> compare (a : int) b) entries
  |> List.map (fun (k, v, _) -> (k, v))

let restore t entries =
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem t.table k) then insert_locked t k v)
        entries)
