(* Timing, percentiles, process facts and the in-memory span recorder
   shared by every workload. *)

(* Seconds on the monotonic clock, to the nanosecond: loopback requests
   take tens of microseconds, below what gettimeofday resolves well. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Order-statistic percentile (nearest rank) of an unsorted sample. *)
let percentile q samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let median a = percentile 0.5 a

(* Samples strictly beyond the [q] percentile: the count printed beside a
   tail figure, which must be at least 10 for the figure to mean much. *)
let beyond q samples =
  let p = percentile q samples in
  Array.fold_left (fun n x -> if x > p then n + 1 else n) 0 samples

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* ---------------------------- processes ----------------------------- *)

let status_field pid field =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | l ->
            let k = String.length field in
            if String.length l > k && String.sub l 0 k = field then
              Scanf.sscanf (String.sub l k (String.length l - k)) " %d" Option.some
            else go ()
      in
      let r = go () in
      close_in ic;
      r

(* Peak resident set of a process (default: this one), in MiB. *)
let peak_rss_mb ?pid () =
  match status_field pid "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      (* Read to EOF: /proc files report no length. *)
      let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec go () =
        let k = input ic chunk 0 4096 in
        if k > 0 then begin
          Buffer.add_subbytes b chunk 0 k;
          go ()
        end
      in
      go ();
      close_in ic;
      Some (Buffer.contents b)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s ->
      let lines = String.split_on_char '\n' s in
      let rec go = function
        | [] -> "unknown"
        | l :: rest -> (
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = "model name" ->
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> go rest)
      in
      go lines

let host_fingerprint ~profile =
  Cacti_util.Jsonx.Obj
    [
      ("nproc", Cacti_util.Jsonx.Int (Domain.recommended_domain_count ()));
      ("cpu_model", Cacti_util.Jsonx.String (cpu_model ()));
      ("ocaml_version", Cacti_util.Jsonx.String Sys.ocaml_version);
      ("build_profile", Cacti_util.Jsonx.String profile);
    ]

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------ spans ------------------------------- *)

(* Spans recorded by the benchmark around its own calls into the
   program's public functions.  They live in memory (one growable table
   per recorder) and are written out when the run ends.  [parent] is the
   index of the enclosing span, -1 for a root; [op] groups the spans of
   one workload operation (one solve, request, pass or cell). *)
module Span = struct
  type span = {
    name : string;
    op : int;
    parent : int;
    t0 : float;
    mutable t1 : float;
  }

  type t = {
    mutable spans : span array;
    mutable n : int;
    mutable stack : int list;
    mutable on : bool;
  }

  let dummy = { name = ""; op = 0; parent = -1; t0 = 0.; t1 = 0. }
  let create () = { spans = Array.make 4096 dummy; n = 0; stack = []; on = false }

  let push t s =
    if t.n = Array.length t.spans then begin
      let b = Array.make (2 * t.n) dummy in
      Array.blit t.spans 0 b 0 t.n;
      t.spans <- b
    end;
    t.spans.(t.n) <- s;
    t.n <- t.n + 1

  (* [with_ t ~op name f] runs [f] inside a span when recording is on. *)
  let with_ t ~op name f =
    if not t.on then f ()
    else begin
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      let idx = t.n in
      push t { name; op; parent; t0 = now (); t1 = 0. };
      t.stack <- idx :: t.stack;
      let finish () =
        t.spans.(idx).t1 <- now ();
        t.stack <- List.tl t.stack
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* Record a root span measured elsewhere (e.g. on a pool domain). *)
  let add t ~op name t0 t1 =
    if t.on then push t { name; op; parent = -1; t0; t1 }

  let spans t = Array.sub t.spans 0 t.n

  (* Self time per span name: duration minus the time covered by its
     direct children. *)
  let self_times t =
    let sp = spans t in
    let child = Array.make (Array.length sp) 0. in
    Array.iter
      (fun s -> if s.parent >= 0 then
          child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0))
      sp;
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i s ->
        let self = Float.max 0. (s.t1 -. s.t0 -. child.(i)) in
        let cur = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (cur +. self))
      sp;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let total t name =
    Array.fold_left
      (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
      0. (spans t)

  let max_of t name =
    Array.fold_left
      (fun acc s -> if s.name = name then Float.max acc (s.t1 -. s.t0) else acc)
      0. (spans t)

  let write t path =
    let oc = open_out path in
    output_string oc "name,op,parent,t0_s,dur_s\n";
    let base = if t.n = 0 then 0. else t.spans.(0).t0 in
    Array.iter
      (fun s ->
        Printf.fprintf oc "%s,%d,%d,%.9f,%.9f\n" s.name s.op s.parent
          (s.t0 -. base) (s.t1 -. s.t0))
      (spans t);
    close_out oc
end
