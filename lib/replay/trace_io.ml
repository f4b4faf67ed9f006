exception Parse_error of { path : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { path; line; msg } ->
        Some (Printf.sprintf "%s:%d: %s" path line msg)
    | _ -> None)

type format = Text | Binary

let format_to_string = function Text -> "text" | Binary -> "binary"

let magic = "CACTIRPB"
let version = 1
let record_bytes = 11
let max_tid = 0xFFFF
let max_addr = (1 lsl 62) - 1

(* Chunk sizing: bounds both the writer's buffering and the reader's
   resident window, so multi-GB traces stream in constant memory. *)
let chunk_records = 65536
let max_chunk_records = 1 lsl 22

let fail path line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { path; line; msg })) fmt

let detect_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m = String.length magic in
      let buf = Bytes.create m in
      let n = input ic buf 0 m in
      if n = m && Bytes.to_string buf = magic then Binary else Text)

(* ---------------- text reader ---------------- *)

let parse_addr path lineno s =
  let v =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail path lineno "address %S is not a number" s
  in
  if v < 0 || v > max_addr then
    fail path lineno "address %S out of range [0, 2^62)" s
  else v

let parse_tid path lineno s =
  match int_of_string_opt s with
  | Some v when v >= 0 && v <= max_tid -> v
  | Some v -> fail path lineno "thread id %d out of range [0, %d]" v max_tid
  | None -> fail path lineno "thread id %S is not an integer" s

let iter_text ~path ic ~f =
  let count = ref 0 in
  let lineno = ref 0 in
  (try
     while true do
       incr lineno;
       let raw = input_line ic in
       (* Cut a trailing comment, then trim. *)
       let body =
         match String.index_opt raw '#' with
         | Some i -> String.sub raw 0 i
         | None -> raw
       in
       let body = String.trim body in
       if body <> "" then begin
         let toks =
           String.split_on_char ' '
             (String.map (fun c -> if c = '\t' then ' ' else c) body)
           |> List.filter (fun s -> s <> "")
         in
         match toks with
         | [ op; addr ] | [ op; addr; _ ] when String.length op <> 1 ->
             ignore addr;
             fail path !lineno "expected R or W, got %S" op
         | [ op; addr ] | [ op; addr; _ ] ->
             let write =
               match op.[0] with
               | 'R' | 'r' -> false
               | 'W' | 'w' -> true
               | _ -> fail path !lineno "expected R or W, got %S" op
             in
             let addr = parse_addr path !lineno addr in
             let tid =
               match toks with
               | [ _; _; t ] -> parse_tid path !lineno t
               | _ -> 0
             in
             f ~tid ~write ~addr;
             incr count
         | _ -> fail path !lineno "malformed record %S" body
       end
     done
   with End_of_file -> ());
  !count

(* ---------------- binary reader ---------------- *)

let read_u32 path ic what =
  let b = Bytes.create 4 in
  (try really_input ic b 0 4
   with End_of_file -> fail path 0 "truncated stream: missing %s" what);
  Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF

let iter_binary ~path ic ~f =
  let m = String.length magic in
  let hdr = Bytes.create m in
  (try really_input ic hdr 0 m
   with End_of_file -> fail path 0 "truncated stream: missing magic");
  if Bytes.to_string hdr <> magic then
    fail path 0 "bad magic (not a cacti-d binary trace)";
  let v = read_u32 path ic "version" in
  if v <> version then fail path 0 "unsupported binary trace version %d" v;
  let buf = Bytes.create (chunk_records * record_bytes) in
  let buf = ref buf in
  let count = ref 0 in
  let finished = ref false in
  while not !finished do
    let n = read_u32 path ic "chunk header" in
    if n = 0 then begin
      (* Terminator: the stream must end exactly here, so a truncated or
         concatenated file cannot silently pass as complete. *)
      (match input_char ic with
      | _ -> fail path 0 "trailing bytes after the stream terminator"
      | exception End_of_file -> ());
      finished := true
    end
    else begin
      if n > max_chunk_records then
        fail path 0 "oversized chunk (%d records, max %d)" n
          max_chunk_records;
      let need = n * record_bytes in
      if Bytes.length !buf < need then buf := Bytes.create need;
      let b = !buf in
      (try really_input ic b 0 need
       with End_of_file ->
         fail path (!count + 1) "truncated stream: incomplete chunk");
      for i = 0 to n - 1 do
        let off = i * record_bytes in
        let flags = Bytes.get_uint8 b off in
        if flags land lnot 1 <> 0 then
          fail path (!count + i + 1) "invalid flag byte 0x%02x" flags;
        let tid = Bytes.get_uint16_le b (off + 1) in
        let addr64 = Bytes.get_int64_le b (off + 3) in
        if Int64.compare addr64 0L < 0
           || Int64.compare addr64 (Int64.of_int max_addr) > 0
        then
          fail path (!count + i + 1) "address 0x%Lx out of range [0, 2^62)"
            addr64;
        f ~tid ~write:(flags land 1 = 1) ~addr:(Int64.to_int addr64)
      done;
      count := !count + n
    end
  done;
  !count

let iter_channel ~path format ic ~f =
  match format with
  | Text -> iter_text ~path ic ~f
  | Binary -> iter_binary ~path ic ~f

let iter_file ?format path ~f =
  let format =
    match format with Some fmt -> fmt | None -> detect_file path
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> iter_channel ~path format ic ~f)

(* ---------------- zero-copy mapped traces ---------------- *)

type bigbytes =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type mapped = {
  buf : bigbytes;
  m_path : string;
  m_n : int;
  chunk_first : int array;
      (** record index of chunk [c]'s first record; length [n_chunks + 1],
          last entry = [m_n] *)
  chunk_off : int array;  (** byte offset of chunk [c]'s first record *)
}

let mbyte (buf : bigbytes) o = Char.code (Bigarray.Array1.unsafe_get buf o)

(* Bounds-checked u32 read used only while walking the chunk table. *)
let mu32 path (buf : bigbytes) size pos what =
  if pos + 4 > size then fail path 0 "truncated stream: missing %s" what;
  mbyte buf pos
  lor (mbyte buf (pos + 1) lsl 8)
  lor (mbyte buf (pos + 2) lsl 16)
  lor (mbyte buf (pos + 3) lsl 24)

let map_binary path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let size, buf =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size = 0 then fail path 0 "truncated stream: missing magic";
        let g =
          Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]
        in
        (size, Bigarray.array1_of_genarray g))
  in
  let m = String.length magic in
  if size < m then fail path 0 "truncated stream: missing magic";
  for i = 0 to m - 1 do
    if Bigarray.Array1.get buf i <> magic.[i] then
      fail path 0 "bad magic (not a cacti-d binary trace)"
  done;
  let v = mu32 path buf size m "version" in
  if v <> version then fail path 0 "unsupported binary trace version %d" v;
  (* Walk the chunk headers (O(chunks), no record is touched) to index
     every chunk's record range and byte offset. *)
  let firsts = ref [] and offs = ref [] in
  let rec walk pos first =
    let n = mu32 path buf size pos "chunk header" in
    if n = 0 then begin
      if pos + 4 <> size then
        fail path 0 "trailing bytes after the stream terminator";
      first
    end
    else begin
      if n > max_chunk_records then
        fail path 0 "oversized chunk (%d records, max %d)" n max_chunk_records;
      if pos + 4 + (n * record_bytes) > size then
        fail path (first + 1) "truncated stream: incomplete chunk";
      firsts := first :: !firsts;
      offs := (pos + 4) :: !offs;
      walk (pos + 4 + (n * record_bytes)) (first + n)
    end
  in
  let m_n = walk (m + 4) 0 in
  {
    buf;
    m_path = path;
    m_n;
    chunk_first = Array.of_list (List.rev (m_n :: !firsts));
    chunk_off = Array.of_list (List.rev !offs);
  }

let mapped_length mp = mp.m_n

(* Validate-and-decode the record at byte offset [o] (index [i] labels
   errors), mirroring [iter_binary]'s diagnostics. *)
let checked_flags mp i o =
  let flags = mbyte mp.buf o in
  if flags land lnot 1 <> 0 then
    fail mp.m_path (i + 1) "invalid flag byte 0x%02x" flags;
  flags

let checked_addr mp i o =
  let b7 = mbyte mp.buf (o + 10) in
  if b7 land 0xC0 <> 0 then begin
    (* out of [0, 2^62): render the full 64-bit value for the message *)
    let a = ref 0L in
    for k = 10 downto 3 do
      a := Int64.logor (Int64.shift_left !a 8) (Int64.of_int (mbyte mp.buf (o + k)))
    done;
    fail mp.m_path (i + 1) "address 0x%Lx out of range [0, 2^62)" !a
  end;
  mbyte mp.buf (o + 3)
  lor (mbyte mp.buf (o + 4) lsl 8)
  lor (mbyte mp.buf (o + 5) lsl 16)
  lor (mbyte mp.buf (o + 6) lsl 24)
  lor (mbyte mp.buf (o + 7) lsl 32)
  lor (mbyte mp.buf (o + 8) lsl 40)
  lor (mbyte mp.buf (o + 9) lsl 48)
  lor (b7 lsl 56)

(* Unchecked accessors for replay hot loops: [o] must be a record offset
   produced by {!bucket} (which validated the record). *)
let off_meta mp o =
  let tid = mbyte mp.buf (o + 1) lor (mbyte mp.buf (o + 2) lsl 8) in
  (tid lsl 1) lor (mbyte mp.buf o land 1)

let off_addr mp o =
  mbyte mp.buf (o + 3)
  lor (mbyte mp.buf (o + 4) lsl 8)
  lor (mbyte mp.buf (o + 5) lsl 16)
  lor (mbyte mp.buf (o + 6) lsl 24)
  lor (mbyte mp.buf (o + 7) lsl 32)
  lor (mbyte mp.buf (o + 8) lsl 40)
  lor (mbyte mp.buf (o + 9) lsl 48)
  lor (mbyte mp.buf (o + 10) lsl 56)

let iter_mapped mp ~f =
  for c = 0 to Array.length mp.chunk_off - 1 do
    let first = mp.chunk_first.(c) in
    let count = mp.chunk_first.(c + 1) - first in
    let o = ref mp.chunk_off.(c) in
    for k = 0 to count - 1 do
      let i = first + k in
      let flags = checked_flags mp i !o in
      let addr = checked_addr mp i !o in
      let tid = mbyte mp.buf (!o + 1) lor (mbyte mp.buf (!o + 2) lsl 8) in
      f ~tid ~write:(flags land 1 = 1) ~addr;
      o := !o + record_bytes
    done
  done

(* [f i o] for every record index [i] and its byte offset [o], in trace
   order: index and offset advance together chunk by chunk. *)
let iter_chunks mp f =
  for c = 0 to Array.length mp.chunk_off - 1 do
    let first = mp.chunk_first.(c) in
    let o0 = mp.chunk_off.(c) - (first * record_bytes) in
    for i = first to mp.chunk_first.(c + 1) - 1 do
      f i (o0 + (i * record_bytes))
    done
  done

(* ---------------- in-memory traces ---------------- *)

type packed = { n : int; addrs : int array; meta : int array }

let load ?format path =
  let addrs = ref (Array.make 4096 0) in
  let meta = ref (Array.make 4096 0) in
  let n = ref 0 in
  let push ~tid ~write ~addr =
    if !n = Array.length !addrs then begin
      let grow a =
        let b = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      addrs := grow !addrs;
      meta := grow !meta
    end;
    !addrs.(!n) <- addr;
    !meta.(!n) <- (tid lsl 1) lor Bool.to_int write;
    incr n
  in
  ignore (iter_file ?format path ~f:push);
  { n = !n; addrs = !addrs; meta = !meta }

let check_record tid write addr =
  ignore write;
  if tid < 0 || tid > max_tid then
    invalid_arg (Printf.sprintf "Trace_io: thread id %d out of range" tid);
  if addr < 0 || addr > max_addr then
    invalid_arg (Printf.sprintf "Trace_io: address 0x%x out of range" addr)

let of_records recs =
  let n = Array.length recs in
  let addrs = Array.make (max 1 n) 0 in
  let meta = Array.make (max 1 n) 0 in
  Array.iteri
    (fun i (tid, write, addr) ->
      check_record tid write addr;
      addrs.(i) <- addr;
      meta.(i) <- (tid lsl 1) lor Bool.to_int write)
    recs;
  { n; addrs; meta }

let iter_packed t ~f =
  for i = 0 to t.n - 1 do
    let m = Array.unsafe_get t.meta i in
    f ~tid:(m lsr 1) ~write:(m land 1 = 1) ~addr:(Array.unsafe_get t.addrs i)
  done

(* ---------------- sources and shard bucketing ---------------- *)

type source = Packed of packed | Mapped of mapped

let load_source ?format path =
  let format =
    match format with Some fmt -> fmt | None -> detect_file path
  in
  match format with
  | Binary -> Mapped (map_binary path)
  | Text -> Packed (load ~format path)

let source_length = function Packed p -> p.n | Mapped m -> m.m_n

let iter_source src ~f =
  match src with Packed p -> iter_packed p ~f | Mapped m -> iter_mapped m ~f

type buckets = {
  b_bits : int;
  shard_of : Bytes.t;  (** shard id of record [i] (merge walks this) *)
  seqs : int array array;
      (** per shard, ascending original record indices *)
  offs : int array array;
      (** per shard, the matching byte offsets ([Mapped] sources only;
          [[||]]s for [Packed]) *)
}

let max_shard_bits = 8

(* A two-pass counting sort.  Pass 1 assigns every record its shard (the
   first touch of a mapped record, so it validates) and counts per shard;
   pass 2 walks [shard_of] alone and scatters indices — and, for [Mapped],
   byte offsets recomputed from the chunk table — into exact-size arrays. *)
let bucket source ~line_shift ~bits =
  if bits < 1 || bits > max_shard_bits then
    invalid_arg "Trace_io.bucket: bits must be in 1..8";
  let ns = 1 lsl bits in
  let mask = ns - 1 in
  let n = source_length source in
  let shard_of = Bytes.create n in
  let counts = Array.make ns 0 in
  let assign i addr =
    let s = (addr lsr line_shift) land mask in
    Bytes.unsafe_set shard_of i (Char.unsafe_chr s);
    Array.unsafe_set counts s (Array.unsafe_get counts s + 1)
  in
  (match source with
  | Packed tr ->
      for i = 0 to n - 1 do
        assign i (Array.unsafe_get tr.addrs i)
      done
  | Mapped mp ->
      iter_chunks mp (fun i o ->
          ignore (checked_flags mp i o : int);
          assign i (checked_addr mp i o)));
  let exact () = Array.map (fun c -> Array.make c 0) counts in
  let seqs = exact () in
  let offs =
    match source with Packed _ -> Array.make ns [||] | Mapped _ -> exact ()
  in
  let fill = Array.make ns 0 in
  let place i o =
    let s = Char.code (Bytes.unsafe_get shard_of i) in
    let k = Array.unsafe_get fill s in
    Array.unsafe_set (Array.unsafe_get seqs s) k i;
    (match source with
    | Packed _ -> ()
    | Mapped _ -> Array.unsafe_set (Array.unsafe_get offs s) k o);
    Array.unsafe_set fill s (k + 1)
  in
  (match source with
  | Packed _ ->
      for i = 0 to n - 1 do
        place i 0
      done
  | Mapped mp -> iter_chunks mp place);
  { b_bits = bits; shard_of; seqs; offs }

(* ---------------- writers ---------------- *)

type writer = {
  oc : out_channel;
  wformat : format;
  buf : Bytes.t;  (** one binary chunk *)
  mutable buffered : int;  (** records in [buf] *)
  mutable closed : bool;
}

let flush_chunk w =
  if w.buffered > 0 then begin
    let hdr = Bytes.create 4 in
    Bytes.set_int32_le hdr 0 (Int32.of_int w.buffered);
    output_bytes w.oc hdr;
    output w.oc w.buf 0 (w.buffered * record_bytes);
    w.buffered <- 0
  end

let open_writer format oc =
  (match format with
  | Text -> output_string oc "# cacti-d replay trace v2\n"
  | Binary ->
      output_string oc magic;
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int version);
      output_bytes oc hdr);
  {
    oc;
    wformat = format;
    buf = Bytes.create (chunk_records * record_bytes);
    buffered = 0;
    closed = false;
  }

let write_record w ~tid ~write ~addr =
  if w.closed then invalid_arg "Trace_io.write_record: writer closed";
  check_record tid write addr;
  match w.wformat with
  | Text ->
      output_char w.oc (if write then 'W' else 'R');
      output_string w.oc (Printf.sprintf " 0x%x" addr);
      if tid <> 0 then output_string w.oc (Printf.sprintf " %d" tid);
      output_char w.oc '\n'
  | Binary ->
      let off = w.buffered * record_bytes in
      Bytes.set_uint8 w.buf off (Bool.to_int write);
      Bytes.set_uint16_le w.buf (off + 1) tid;
      Bytes.set_int64_le w.buf (off + 3) (Int64.of_int addr);
      w.buffered <- w.buffered + 1;
      if w.buffered = chunk_records then flush_chunk w

let close_writer w =
  if not w.closed then begin
    (match w.wformat with
    | Text -> ()
    | Binary ->
        flush_chunk w;
        let hdr = Bytes.create 4 in
        Bytes.set_int32_le hdr 0 0l;
        output_bytes w.oc hdr);
    flush w.oc;
    w.closed <- true
  end

let convert ~src ?src_format ~dst ~dst_format () =
  let dir = Filename.dirname dst in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error
      (Cacti_util.Diag.errorf ~component:"replay" ~reason:"output_dir_missing"
         "cannot write %s: directory %s does not exist" dst dir)
  else begin
    let src_format =
      match src_format with Some fmt -> fmt | None -> detect_file src
    in
    let ic = open_in_bin src in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let oc = open_out_bin dst in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            let w = open_writer dst_format oc in
            let n =
              iter_channel ~path:src src_format ic ~f:(fun ~tid ~write ~addr ->
                  write_record w ~tid ~write ~addr)
            in
            close_writer w;
            Ok n))
  end
