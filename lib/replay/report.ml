let csv_header = "seq,tid,op,addr,level,cycles,victims,reason"

let level_name = function
  | 0 -> "L1"
  | 1 -> "L2"
  | 2 -> "L3"
  | _ -> "MEM"

let victim_addr line_bytes packed = (packed lsr 2) * line_bytes
let victim_dirty packed = packed land 3 = 3

(* reason: hit = served without filling; cold = filled into invalid ways
   only; evict = at least one line was displaced. *)
let reason (o : Replayer.outcome) =
  if o.Replayer.level = 0 then "hit"
  else if
    o.Replayer.l1_victim < 0 && o.Replayer.l2_victim < 0
    && o.Replayer.l3_victim < 0
  then "cold"
  else "evict"

(* Digits go straight into the buffer, most significant first, so a row
   costs no [Printf] format interpretation and allocates nothing.  The
   decimal recursion runs on non-positive values so [min_int] needs no
   special case; the hex one uses [lsr], which prints a negative value as
   its 63-bit pattern exactly like [%x]. *)
let rec add_dec_neg b v =
  if v <= -10 then add_dec_neg b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (v mod 10)))

let add_dec b v =
  if v < 0 then begin
    Buffer.add_char b '-';
    add_dec_neg b v
  end
  else add_dec_neg b (-v)

let rec add_hex_digits b v =
  if v lsr 4 <> 0 then add_hex_digits b (v lsr 4);
  Buffer.add_char b (String.unsafe_get "0123456789abcdef" (v land 15))

let add_hex b v =
  Buffer.add_string b "0x";
  add_hex_digits b v

let add_op b write = Buffer.add_char b (if write then 'W' else 'R')

(* One victim as [LVL:0xADDR:c|d]; [any] says whether one was already
   written (so a [;] separates them).  Returns the new [any]. *)
let csv_victim b ~line_bytes lvl packed any =
  if packed < 0 then any
  else begin
    if any then Buffer.add_char b ';';
    Buffer.add_string b lvl;
    Buffer.add_char b ':';
    add_hex b (victim_addr line_bytes packed);
    Buffer.add_string b (if victim_dirty packed then ":d" else ":c");
    true
  end

let append_csv_row b ~seq ~tid ~write ~addr ~line_bytes
    (o : Replayer.outcome) =
  add_dec b seq;
  Buffer.add_char b ',';
  add_dec b tid;
  Buffer.add_char b ',';
  add_op b write;
  Buffer.add_char b ',';
  add_hex b addr;
  Buffer.add_char b ',';
  Buffer.add_string b (level_name o.Replayer.level);
  Buffer.add_char b ',';
  add_dec b o.Replayer.cycles;
  Buffer.add_char b ',';
  let any = csv_victim b ~line_bytes "L1" o.Replayer.l1_victim false in
  let any = csv_victim b ~line_bytes "L2" o.Replayer.l2_victim any in
  if not (csv_victim b ~line_bytes "L3" o.Replayer.l3_victim any) then
    Buffer.add_char b '-';
  Buffer.add_char b ',';
  Buffer.add_string b (reason o);
  Buffer.add_char b '\n'

let jsonl_victim b ~line_bytes lvl packed any =
  if packed < 0 then any
  else begin
    if any then Buffer.add_char b ',';
    Buffer.add_string b {|{"level":"|};
    Buffer.add_string b lvl;
    Buffer.add_string b {|","addr":"|};
    add_hex b (victim_addr line_bytes packed);
    Buffer.add_string b
      (if victim_dirty packed then {|","dirty":true}|}
       else {|","dirty":false}|});
    true
  end

let append_jsonl_row b ~seq ~tid ~write ~addr ~line_bytes
    (o : Replayer.outcome) =
  Buffer.add_string b {|{"seq":|};
  add_dec b seq;
  Buffer.add_string b {|,"tid":|};
  add_dec b tid;
  Buffer.add_string b {|,"op":"|};
  add_op b write;
  Buffer.add_string b {|","addr":"|};
  add_hex b addr;
  Buffer.add_string b {|","level":"|};
  Buffer.add_string b (level_name o.Replayer.level);
  Buffer.add_string b {|","cycles":|};
  add_dec b o.Replayer.cycles;
  Buffer.add_string b {|,"victims":[|};
  let any = jsonl_victim b ~line_bytes "L1" o.Replayer.l1_victim false in
  let any = jsonl_victim b ~line_bytes "L2" o.Replayer.l2_victim any in
  ignore (jsonl_victim b ~line_bytes "L3" o.Replayer.l3_victim any : bool);
  Buffer.add_string b {|],"reason":"|};
  Buffer.add_string b (reason o);
  Buffer.add_string b "\"}\n"

open Cacti_util

let level_json (lv : Replayer.level) =
  Jsonx.Obj
    [
      ("lines", Jsonx.Int lv.Replayer.lines);
      ("assoc", Jsonx.Int lv.Replayer.assoc);
      ("latency", Jsonx.Int lv.Replayer.latency);
      ("policy", Jsonx.String (Mcsim.Policy.to_string lv.Replayer.policy));
    ]

let rate num den = if den = 0 then Jsonx.Null else Jsonx.num (float_of_int num /. float_of_int den)

let summary_json ~(config : Replayer.config) (s : Replayer.summary) =
  Jsonx.Obj
    [
      ("schema", Jsonx.String "cacti-d/replay-summary/v1");
      ( "config",
        Jsonx.Obj
          [
            ("line_bytes", Jsonx.Int config.Replayer.line_bytes);
            ("n_cores", Jsonx.Int config.Replayer.n_cores);
            ("mem_latency", Jsonx.Int config.Replayer.mem_latency);
            ("l1", level_json config.Replayer.l1);
            ("l2", level_json config.Replayer.l2);
            ( "l3",
              match config.Replayer.l3 with
              | Some lv -> level_json lv
              | None -> Jsonx.Null );
          ] );
      ("accesses", Jsonx.Int s.Replayer.accesses);
      ("reads", Jsonx.Int s.Replayer.reads);
      ("writes", Jsonx.Int s.Replayer.writes);
      ("l1_hits", Jsonx.Int s.Replayer.l1_hits);
      ("l2_accesses", Jsonx.Int s.Replayer.l2_accesses);
      ("l2_hits", Jsonx.Int s.Replayer.l2_hits);
      ("l3_accesses", Jsonx.Int s.Replayer.l3_accesses);
      ("l3_hits", Jsonx.Int s.Replayer.l3_hits);
      ("mem_accesses", Jsonx.Int s.Replayer.mem_accesses);
      ("l1_evictions", Jsonx.Int s.Replayer.l1_evictions);
      ("l2_evictions", Jsonx.Int s.Replayer.l2_evictions);
      ("l3_evictions", Jsonx.Int s.Replayer.l3_evictions);
      ("writebacks", Jsonx.Int s.Replayer.writebacks);
      ("invalidations", Jsonx.Int s.Replayer.invalidations);
      ("c2c_transfers", Jsonx.Int s.Replayer.c2c_transfers);
      ("total_cycles", Jsonx.Int s.Replayer.total_cycles);
      ("l1_hit_rate", rate s.Replayer.l1_hits s.Replayer.accesses);
      ("l2_hit_rate", rate s.Replayer.l2_hits s.Replayer.l2_accesses);
      ("l3_hit_rate", rate s.Replayer.l3_hits s.Replayer.l3_accesses);
      ( "avg_cycles",
        rate s.Replayer.total_cycles s.Replayer.accesses );
    ]

let pct num den =
  if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let summary_human (s : Replayer.summary) =
  let b = Buffer.create 256 in
  Printf.bprintf b "accesses          %d (%d reads, %d writes)\n"
    s.Replayer.accesses s.Replayer.reads s.Replayer.writes;
  Printf.bprintf b "L1 hits           %d (%.2f%%)\n" s.Replayer.l1_hits
    (pct s.Replayer.l1_hits s.Replayer.accesses);
  Printf.bprintf b "L2 hits           %d / %d (%.2f%%)\n" s.Replayer.l2_hits
    s.Replayer.l2_accesses
    (pct s.Replayer.l2_hits s.Replayer.l2_accesses);
  Printf.bprintf b "L3 hits           %d / %d (%.2f%%)\n" s.Replayer.l3_hits
    s.Replayer.l3_accesses
    (pct s.Replayer.l3_hits s.Replayer.l3_accesses);
  Printf.bprintf b "memory accesses   %d\n" s.Replayer.mem_accesses;
  Printf.bprintf b "evictions         L1 %d, L2 %d, L3 %d\n"
    s.Replayer.l1_evictions s.Replayer.l2_evictions
    s.Replayer.l3_evictions;
  Printf.bprintf b "writebacks to mem %d\n" s.Replayer.writebacks;
  if s.Replayer.invalidations > 0 || s.Replayer.c2c_transfers > 0 then
    Printf.bprintf b "coherence         %d invalidations, %d c2c\n"
      s.Replayer.invalidations s.Replayer.c2c_transfers;
  Printf.bprintf b "total cycles      %d (%.2f avg/access)\n"
    s.Replayer.total_cycles
    (if s.Replayer.accesses = 0 then 0.
     else
       float_of_int s.Replayer.total_cycles
       /. float_of_int s.Replayer.accesses);
  Buffer.contents b
