(* Tests for the trace-replay subsystem (lib/replay) and the pluggable
   replacement policies (Mcsim.Policy / Cache_sim).

   The policy golden-sequence tests pin "replay policy semantics v1"
   exactly: the QLRU/MRU/Tree-PLRU definitions are reverse-engineered
   (uops.info / CacheTrace), so these hand-derived eviction sequences are
   the authoritative record of what this implementation does.  An
   intentional semantic change must re-derive them. *)

open Mcreplay

let tmp_file suffix =
  let path = Filename.temp_file "test_replay" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------- policy parsing ------------------------- *)

let policy = Alcotest.testable
    (fun ppf p -> Format.fprintf ppf "%s" (Mcsim.Policy.to_string p))
    Mcsim.Policy.equal

let check_parse name expect =
  match Mcsim.Policy.of_string name with
  | Ok p -> Alcotest.check policy name expect p
  | Error d -> Alcotest.failf "%s: unexpected error %s" name d.Cacti_util.Diag.reason

let check_reject ~reason name parse =
  match parse name with
  | Ok _ -> Alcotest.failf "%S should have been rejected" name
  | Error d ->
      Alcotest.(check string) (name ^ " reason") reason d.Cacti_util.Diag.reason

let test_policy_parse () =
  check_parse "lru" Mcsim.Policy.Lru;
  check_parse "LRU" Mcsim.Policy.Lru;
  check_parse "tree_plru" Mcsim.Policy.Tree_plru;
  check_parse "plru" Mcsim.Policy.Tree_plru;
  check_parse "mru" Mcsim.Policy.Mru;
  check_parse "MRU_N" Mcsim.Policy.Mru_n;
  check_parse "qlru_h11_m1_r0_u0"
    (Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 0; u = 0 });
  check_parse "QLRU_H00_M1_R1_U2"
    (Mcsim.Policy.Qlru { h2 = 0; h3 = 0; m = 1; r = 1; u = 2 });
  (* canonical names parse back *)
  List.iter
    (fun p ->
      check_parse (Mcsim.Policy.to_string p) p)
    [
      Mcsim.Policy.Lru; Mcsim.Policy.Tree_plru; Mcsim.Policy.Mru;
      Mcsim.Policy.Mru_n;
      Mcsim.Policy.Qlru { h2 = 2; h3 = 3; m = 0; r = 1; u = 1 };
    ]

(* Satellite: unknown names are typed refusals, never a silent fallback
   (CacheTrace silently substitutes Coffee Lake for unknown CPUs). *)
let test_policy_reject () =
  let pol = Mcsim.Policy.of_string in
  check_reject ~reason:"unknown_policy" "fifo" pol;
  check_reject ~reason:"unknown_policy" "" pol;
  check_reject ~reason:"unknown_policy" "qlru" pol;
  check_reject ~reason:"unknown_policy" "qlru_h11_m1_r2_u0" pol (* r > 1 *);
  check_reject ~reason:"unknown_policy" "qlru_h11_m1_r0_u3" pol (* u > 2 *);
  check_reject ~reason:"unknown_policy" "qlru_h41_m1_r0_u0" pol (* h > 3 *);
  check_reject ~reason:"unknown_policy" "qlru_h11_m1_r0" pol;
  let cpu = Mcsim.Policy.preset_of_string in
  check_reject ~reason:"unknown_cpu" "pentium4" cpu;
  check_reject ~reason:"unknown_cpu" "skl2" cpu;
  (* the error message lists every valid name *)
  (match cpu "zen3" with
  | Ok _ -> Alcotest.fail "zen3 accepted"
  | Error d ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun name ->
          if not (contains d.Cacti_util.Diag.message name) then
            Alcotest.failf "error message misses %S" name)
        Mcsim.Policy.preset_names)

let test_presets () =
  let q h2 h3 m r u = Mcsim.Policy.Qlru { h2; h3; m; r; u } in
  let check short l1 l2 l3 =
    match Mcsim.Policy.preset_of_string short with
    | Error d -> Alcotest.failf "%s: %s" short d.Cacti_util.Diag.reason
    | Ok p ->
        Alcotest.check policy (short ^ ".l1") l1 p.Mcsim.Policy.l1;
        Alcotest.check policy (short ^ ".l2") l2 p.Mcsim.Policy.l2;
        Alcotest.check policy (short ^ ".l3") l3 p.Mcsim.Policy.l3
  in
  let plru = Mcsim.Policy.Tree_plru in
  check "nhm" plru plru Mcsim.Policy.Mru;
  check "snb" plru plru Mcsim.Policy.Mru_n;
  check "ivb" plru (q 0 0 1 0 1) (q 1 1 1 1 2);
  check "hsw" plru (q 0 0 1 0 1) (q 1 1 1 1 2);
  check "skylake" plru (q 0 0 1 0 1) (q 1 1 1 1 2);
  check "coffeelake" plru (q 0 0 1 0 1) (q 1 1 1 0 0);
  (* long and short names resolve to the same preset *)
  List.iter
    (fun (p : Mcsim.Policy.preset) ->
      match Mcsim.Policy.preset_of_string p.Mcsim.Policy.short with
      | Ok q -> Alcotest.(check string) p.Mcsim.Policy.short
                  p.Mcsim.Policy.cpu q.Mcsim.Policy.cpu
      | Error _ -> Alcotest.failf "short name %s" p.Mcsim.Policy.short)
    Mcsim.Policy.presets

let prop_qlru_roundtrip =
  QCheck.Test.make ~name:"qlru name roundtrips" ~count:100
    QCheck.(quad (int_range 0 3) (int_range 0 3) (int_range 0 3)
              (pair (int_range 0 1) (int_range 0 2)))
    (fun (h2, h3, m, (r, u)) ->
      let p = Mcsim.Policy.Qlru { h2; h3; m; r; u } in
      match Mcsim.Policy.of_string (Mcsim.Policy.to_string p) with
      | Ok p' -> Mcsim.Policy.equal p p'
      | Error _ -> false)

(* --------------------- policy golden sequences --------------------- *)

(* Drive a single-set 4-way cache and record each fill's victim line
   (-1 when an invalid way absorbed the fill).  [A] accesses must hit. *)
type op = F of int | A of int

let run_policy policy ops =
  let c = Mcsim.Cache_sim.create ~assoc:4 ~policy ~lines:4 () in
  List.filter_map
    (function
      | A line -> (
          match Mcsim.Cache_sim.access c ~line ~write:false with
          | Mcsim.Cache_sim.Hit _ -> None
          | Mcsim.Cache_sim.Miss ->
              Alcotest.failf "access %d missed" line)
      | F line ->
          Some
            (match Mcsim.Cache_sim.fill c ~line ~state:Mcsim.Cache_sim.E with
            | Some e -> e.Mcsim.Cache_sim.line
            | None -> -1))
    ops

let check_seq name policy ops expected =
  Alcotest.(check (list int)) name expected (run_policy policy ops)

let test_golden_tree_plru () =
  check_seq "tree_plru" Mcsim.Policy.Tree_plru
    [ F 0; F 1; F 2; F 3; F 4; A 1; F 5 ]
    [ -1; -1; -1; -1; 0; 2 ]

let test_golden_qlru_r0_u0 () =
  (* cfl L3: hits refresh to age 1, insert at 1, leftmost victim, aging
     only on demand *)
  let p = Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 0; u = 0 } in
  check_seq "qlru_h11_m1_r0_u0" p
    [ F 10; F 11; F 12; F 13; F 14; F 15; A 14; F 16; F 17; F 18 ]
    [ -1; -1; -1; -1; 10; 11; 12; 13; 15 ]

let test_golden_qlru_r0_u1 () =
  (* ivb+ L2: every fill ages the other ways *)
  let p = Mcsim.Policy.Qlru { h2 = 0; h3 = 0; m = 1; r = 0; u = 1 } in
  check_seq "qlru_h00_m1_r0_u1" p
    [ F 20; F 21; F 22; F 23; F 24; F 25; A 24; F 26 ]
    [ -1; -1; -1; -1; 20; 21; 22 ]

let test_golden_qlru_r1_u2 () =
  (* skl L3: round-robin victim pointer, aging on every fill and hit *)
  let p = Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 1; u = 2 } in
  check_seq "qlru_h11_m1_r1_u2" p
    [ F 30; F 31; F 32; F 33; F 34; F 35; A 34; F 36; F 37 ]
    [ -1; -1; -1; -1; 30; 31; 32; 33 ]

let test_golden_mru () =
  check_seq "mru" Mcsim.Policy.Mru
    [ F 40; F 41; F 42; F 43; F 44; F 45; F 46; A 45; F 47; F 48 ]
    [ -1; -1; -1; -1; 40; 41; 42; 43; 44 ]

let test_golden_mru_n () =
  (* ends with the all-bits-set fallback: hits never clear other ways'
     bits, so the set saturates and way 0 is evicted *)
  check_seq "mru_n" Mcsim.Policy.Mru_n
    [ F 50; F 51; F 52; F 53; F 54; F 55; A 54; A 52; A 53; F 56 ]
    [ -1; -1; -1; -1; 50; 51; 54 ]

let test_golden_lru () =
  check_seq "lru" Mcsim.Policy.Lru
    [ F 60; F 61; F 62; F 63; A 60; F 64; F 65 ]
    [ -1; -1; -1; -1; 61; 62 ]

(* ------------------- LRU engine bit-identity ----------------------- *)

(* Passing the policy machinery explicitly (all-LRU) must leave the
   engine's counters bit-identical to the historical default path. *)

let tiny_cache ~lines ~assoc ~latency : Mcsim.Machine.cache_params =
  {
    Mcsim.Machine.lines; assoc; latency; cycle = 1;
    e_read = 0.1e-9; e_write = 0.12e-9; p_leak = 0.01; p_refresh = 0.;
  }

let test_machine : Mcsim.Machine.t =
  {
    Mcsim.Machine.name = "replay-test";
    n_cores = 2;
    threads_per_core = 2;
    clock_hz = 2e9;
    l1 = tiny_cache ~lines:128 ~assoc:4 ~latency:2;
    l2 = tiny_cache ~lines:1024 ~assoc:8 ~latency:5;
    l3 =
      Some
        {
          Mcsim.Machine.bank = tiny_cache ~lines:4096 ~assoc:8 ~latency:6;
          n_banks = 2;
          xbar_latency = 3;
          e_xbar = 0.3e-9;
          p_xbar_leak = 0.05;
        };
    mem =
      {
        Mcsim.Machine.timing =
          Mcsim.Dram_sim.basic_timing ~t_rcd:24 ~t_cas:26 ~t_rp:12 ~t_rc:82
            ~t_rrd:8 ~t_burst:5 ~t_ctrl:20;
        policy = Mcsim.Dram_sim.Open_page;
        powerdown = None;
        n_channels = 1;
        n_banks = 8;
        n_chips_per_rank = 8;
        e_activate = 16e-9;
        e_read = 6e-9;
        e_write = 7e-9;
        p_standby = 0.7;
        p_refresh = 0.08;
        bus_mw_per_gbps = 2.0;
        line_transfer_gbits = 512e-9;
      };
    core_power = 10.;
    instr_per_fetch_line = 8;
  }

let test_app : Mcsim.Workload.app =
  {
    Mcsim.Workload.name = "replay-test";
    mem_ratio = 0.3;
    fp_ratio = 0.3;
    write_ratio = 0.3;
    regions =
      [
        {
          Mcsim.Workload.rname = "hot";
          size_bytes = 32 * 1024;
          pattern = Mcsim.Workload.Random_burst 4;
          sharing = Mcsim.Workload.Shared;
          weight = 1.0;
          wr_scale = 1.0;
        };
      ];
    barrier_interval = 10_000;
    lock_interval = 10_000;
    lock_hold = 50;
    n_locks = 2;
  }

let test_lru_engine_identity () =
  let params =
    { Mcsim.Engine.default_params with total_instructions = 100_000 }
  in
  let st_default = Mcsim.Engine.run ~params test_machine test_app in
  let st_explicit =
    Mcsim.Engine.run ~params ~policies:Mcsim.Engine.lru_policies test_machine
      test_app
  in
  Alcotest.(check bool)
    "explicit LRU policies leave Stats.t bit-identical" true
    (st_default = st_explicit)

(* --------------------------- trace I/O ----------------------------- *)

let collect_iter iter =
  let acc = ref [] in
  let n = iter ~f:(fun ~tid ~write ~addr -> acc := (tid, write, addr) :: !acc) in
  (n, List.rev !acc)

let records = Alcotest.(list (triple int bool int))

let test_text_parse () =
  let path = tmp_file ".trc" in
  write_file path
    "# leading comment\n\
     \n\
     R 0x1000\n\
     W 0x2a40 3   # trailing comment\n\
     r 4096\n\
     w 0X10 65535\n\
     R 7 # decimal\n";
  let n, got = collect_iter (Trace_io.iter_file ~format:Trace_io.Text path) in
  Alcotest.(check int) "count" 5 n;
  Alcotest.check records "records"
    [
      (0, false, 0x1000); (3, true, 0x2a40); (0, false, 4096);
      (65535, true, 0x10); (0, false, 7);
    ]
    got

let test_text_malformed () =
  let cases =
    [
      ("bad op", "X 0x10\n");
      ("missing addr", "R\n");
      ("bad addr", "R zz\n");
      ("negative addr", "R -4\n");
      ("bad tid", "R 0x10 hello\n");
      ("tid too large", "R 0x10 70000\n");
      ("extra column", "R 0x10 1 2\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      let path = tmp_file ".trc" in
      write_file path text;
      match collect_iter (Trace_io.iter_file ~format:Trace_io.Text path) with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s: accepted" name)
    cases

let test_binary_malformed () =
  let magic = "CACTIRPB" in
  let version = "\x01\x00\x00\x00" in
  let cases =
    [
      ("bad magic", "CACTIRPX" ^ version);
      ("bad version", magic ^ "\x02\x00\x00\x00");
      ("truncated header", "CACTI");
      ("missing terminator", magic ^ version);
      ( "truncated record",
        magic ^ version ^ "\x01\x00\x00\x00" ^ "\x00\x00\x00" );
      ( "bad flags",
        magic ^ version ^ "\x01\x00\x00\x00"
        ^ "\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
        ^ "\x00\x00\x00\x00" );
      ( "trailing bytes",
        magic ^ version ^ "\x00\x00\x00\x00" ^ "junk" );
    ]
  in
  List.iter
    (fun (name, bytes) ->
      let path = tmp_file ".crtb" in
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      match
        collect_iter (Trace_io.iter_file ~format:Trace_io.Binary path)
      with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s: accepted" name)
    cases

let test_detect () =
  let t = tmp_file ".trc" in
  write_file t "R 0x10\n";
  Alcotest.(check bool) "text" true (Trace_io.detect_file t = Trace_io.Text);
  let b = tmp_file ".crtb" in
  let oc = open_out_bin b in
  let w = Trace_io.open_writer Trace_io.Binary oc in
  Trace_io.write_record w ~tid:0 ~write:false ~addr:16;
  Trace_io.close_writer w;
  close_out oc;
  Alcotest.(check bool) "binary" true
    (Trace_io.detect_file b = Trace_io.Binary)

let gen_records =
  QCheck.(
    list_of_size (Gen.int_range 0 200)
      (triple (int_range 0 Trace_io.max_tid) bool
         (int_range 0 (1 lsl 48))))

let roundtrip_via format recs =
  let path = tmp_file ".any" in
  let oc = open_out_bin path in
  let w = Trace_io.open_writer format oc in
  List.iter (fun (tid, write, addr) -> Trace_io.write_record w ~tid ~write ~addr) recs;
  Trace_io.close_writer w;
  close_out oc;
  let _, got = collect_iter (Trace_io.iter_file ~format path) in
  got

let prop_writer_roundtrip format name =
  QCheck.Test.make ~name ~count:50 gen_records (fun recs ->
      roundtrip_via format recs = recs)

let prop_convert_roundtrip =
  (* text -> binary -> text preserves the record sequence exactly *)
  QCheck.Test.make ~name:"convert roundtrips text<->binary" ~count:50
    gen_records (fun recs ->
      let a = tmp_file ".trc" in
      let oc = open_out a in
      let w = Trace_io.open_writer Trace_io.Text oc in
      List.iter
        (fun (tid, write, addr) -> Trace_io.write_record w ~tid ~write ~addr)
        recs;
      Trace_io.close_writer w;
      close_out oc;
      let b = tmp_file ".crtb" in
      let c = tmp_file ".trc" in
      let count = function Ok n -> n | Error _ -> -1 in
      let n1 =
        count (Trace_io.convert ~src:a ~dst:b ~dst_format:Trace_io.Binary ())
      in
      let n2 =
        count (Trace_io.convert ~src:b ~dst:c ~dst_format:Trace_io.Text ())
      in
      let _, got = collect_iter (Trace_io.iter_file c) in
      n1 = List.length recs && n2 = n1 && got = recs)

(* Satellite: a destination in a nonexistent directory is a typed Diag
   refusal, not a raw Sys_error. *)
let test_convert_output_dir () =
  let src = tmp_file ".trc" in
  write_file src "R 0x1000\n";
  let dst =
    Filename.concat
      (Filename.concat (Filename.get_temp_dir_name ()) "no_such_dir_xyzzy")
      "out.crtb"
  in
  match Trace_io.convert ~src ~dst ~dst_format:Trace_io.Binary () with
  | Ok _ -> Alcotest.fail "missing output directory accepted"
  | Error d ->
      Alcotest.(check string) "reason" "output_dir_missing"
        d.Cacti_util.Diag.reason;
      Alcotest.(check bool) "severity" true
        (d.Cacti_util.Diag.severity = Cacti_util.Diag.Error)

(* ---------------------- zero-copy mapped traces -------------------- *)

let write_binary_trace recs =
  let path = tmp_file ".crtb" in
  let oc = open_out_bin path in
  let w = Trace_io.open_writer Trace_io.Binary oc in
  Array.iter
    (fun (tid, write, addr) -> Trace_io.write_record w ~tid ~write ~addr)
    recs;
  Trace_io.close_writer w;
  close_out oc;
  path

let test_map_binary () =
  (* more records than one writer chunk (65536), so the chunk table has
     several entries *)
  let n = 70_000 in
  let recs =
    Array.init n (fun i ->
        (i land 0xFFFF, i land 1 = 0, (i * 2654435761) land 0xFFFFFFFF))
  in
  let path = write_binary_trace recs in
  let mp = Trace_io.map_binary path in
  Alcotest.(check int) "mapped_length" n (Trace_io.mapped_length mp);
  let i = ref 0 in
  Trace_io.iter_mapped mp ~f:(fun ~tid ~write ~addr ->
      let etid, ewrite, eaddr = recs.(!i) in
      if tid <> etid || write <> ewrite || addr <> eaddr then
        Alcotest.failf "record %d differs" !i;
      incr i);
  Alcotest.(check int) "iterated all" n !i;
  (* empty trace maps fine *)
  let empty = write_binary_trace [||] in
  Alcotest.(check int) "empty" 0
    (Trace_io.mapped_length (Trace_io.map_binary empty))

let test_map_malformed () =
  let magic = "CACTIRPB" in
  let version = "\x01\x00\x00\x00" in
  let cases =
    [
      ("empty file", "");
      ("bad magic", "CACTIRPX" ^ version);
      ("bad version", magic ^ "\x02\x00\x00\x00");
      ("truncated header", "CACTI");
      ("missing terminator", magic ^ version);
      ( "truncated record",
        magic ^ version ^ "\x01\x00\x00\x00" ^ "\x00\x00\x00" );
      ( "bad flags",
        magic ^ version ^ "\x01\x00\x00\x00"
        ^ "\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
        ^ "\x00\x00\x00\x00" );
      ( "oversized address",
        magic ^ version ^ "\x01\x00\x00\x00"
        ^ "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xFF"
        ^ "\x00\x00\x00\x00" );
      ("trailing bytes", magic ^ version ^ "\x00\x00\x00\x00" ^ "junk");
    ]
  in
  List.iter
    (fun (name, bytes) ->
      let path = tmp_file ".crtb" in
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      match
        let mp = Trace_io.map_binary path in
        Trace_io.iter_mapped mp ~f:(fun ~tid:_ ~write:_ ~addr:_ -> ())
      with
      | exception Trace_io.Parse_error _ -> ()
      | () -> Alcotest.failf "%s: accepted" name)
    cases

(* ------------------------- shard bucketing ------------------------- *)

(* The naive model of [Trace_io.bucket]: shard ids, each shard's record
   indices in ascending order, and — for a binary trace written by
   [Trace_io.open_writer] — each record's byte offset in the file. *)
let naive_bucket recs ~line_shift ~bits =
  let ns = 1 lsl bits in
  let shard_of =
    Array.map (fun (_, _, addr) -> (addr lsr line_shift) land (ns - 1)) recs
  in
  let seqs =
    Array.init ns (fun s ->
        List.filter (fun i -> shard_of.(i) = s)
          (List.init (Array.length recs) Fun.id)
        |> Array.of_list)
  in
  (* magic (8) + version (4), then before each chunk of 65536 records a
     4-byte count *)
  let offset i = 12 + (4 * ((i / 65536) + 1)) + (11 * i) in
  (shard_of, seqs, Array.map (Array.map offset) seqs)

let check_bucket name recs source ~line_shift ~bits =
  let bk = Trace_io.bucket source ~line_shift ~bits in
  let shard_of, seqs, offs = naive_bucket recs ~line_shift ~bits in
  Alcotest.(check (array int)) (name ^ " shard_of") shard_of
    (Array.init (Bytes.length bk.Trace_io.shard_of) (fun i ->
         Char.code (Bytes.get bk.Trace_io.shard_of i)));
  Alcotest.(check (array (array int))) (name ^ " seqs") seqs bk.Trace_io.seqs;
  match source with
  | Trace_io.Packed _ ->
      Alcotest.(check (array (array int))) (name ^ " offs")
        (Array.make (1 lsl bits) [||]) bk.Trace_io.offs
  | Trace_io.Mapped mp ->
      Alcotest.(check (array (array int))) (name ^ " offs") offs
        bk.Trace_io.offs;
      (* and every offset decodes to its record *)
      Array.iteri
        (fun s idx ->
          Array.iteri
            (fun k i ->
              let tid, write, addr = recs.(i) in
              let o = bk.Trace_io.offs.(s).(k) in
              if
                Trace_io.off_meta mp o <> (tid lsl 1) lor Bool.to_int write
                || Trace_io.off_addr mp o <> addr
              then Alcotest.failf "%s: record %d decodes wrong" name i)
            idx)
        bk.Trace_io.seqs

let test_bucket_model () =
  (* 70 000 records: two writer chunks, so the mapped offsets cross a
     chunk header *)
  let spread =
    Array.init 70_000 (fun i ->
        (i land 7, i land 3 = 0, (i * 2654435761) land 0xFFFFFFFFFF))
  in
  (* every record falls in one shard at each (line_shift, bits) below *)
  let one_shard =
    Array.init 3_000 (fun i -> (i land 1, i land 1 = 1, (((i * 8) + 5) lsl 6)))
  in
  List.iter
    (fun (name, recs) ->
      let packed = Trace_io.Packed (Trace_io.of_records recs) in
      let mapped = Trace_io.load_source (write_binary_trace recs) in
      List.iter
        (fun (line_shift, bits) ->
          let tag = Printf.sprintf "%s shift %d bits %d" name line_shift bits in
          check_bucket (tag ^ " packed") recs packed ~line_shift ~bits;
          check_bucket (tag ^ " mapped") recs mapped ~line_shift ~bits)
        [ (6, 1); (6, 3); (0, 8) ])
    [ ("empty", [||]); ("spread", spread); ("one shard", one_shard) ]

(* A malformed record is refused by [bucket] — its first full pass — with
   exactly the error [iter_mapped] gives. *)
let test_bucket_malformed () =
  let recs = Array.init 70_000 (fun i -> (0, false, i * 64)) in
  let good = write_binary_trace recs in
  let bytes =
    let ic = open_in_bin good in
    let b = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Bytes.of_string b
  in
  let corrupt name pos byte =
    let b = Bytes.copy bytes in
    Bytes.set b pos (Char.chr byte);
    let path = tmp_file ".crtb" in
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc;
    let err f =
      match f () with
      | exception (Trace_io.Parse_error _ as e) -> e
      | () -> Alcotest.failf "%s: accepted" name
    in
    let via_iter =
      err (fun () ->
          Trace_io.iter_mapped (Trace_io.map_binary path)
            ~f:(fun ~tid:_ ~write:_ ~addr:_ -> ()))
    in
    let via_bucket =
      err (fun () ->
          ignore
            (Trace_io.bucket (Trace_io.load_source path) ~line_shift:6 ~bits:2
              : Trace_io.buckets))
    in
    Alcotest.(check string) name (Printexc.to_string via_iter)
      (Printexc.to_string via_bucket)
  in
  (* record 66 000 sits in the second chunk *)
  let rec_off i = 12 + (4 * ((i / 65536) + 1)) + (11 * i) in
  corrupt "bad flags" (rec_off 66_000) 0x04;
  corrupt "oversized address" (rec_off 66_000 + 10) 0xFF;
  corrupt "bad flags, first chunk" (rec_off 17) 0x80

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"of_records/iter_packed roundtrips" ~count:100
    gen_records (fun recs ->
      let p = Trace_io.of_records (Array.of_list recs) in
      let acc = ref [] in
      Trace_io.iter_packed p ~f:(fun ~tid ~write ~addr ->
          acc := (tid, write, addr) :: !acc);
      List.rev !acc = recs)

(* Satellite: the v1 engine-trace format roundtrips too. *)
let prop_trace_v1_roundtrip =
  let gen =
    QCheck.(
      pair
        (pair (int_range 1 4) (pair (int_range 0 100) (int_range 0 100)))
        (list_of_size (Gen.int_range 1 50)
           (pair (int_range 0 100_000) bool)))
  in
  QCheck.Test.make ~name:"Trace.save/load roundtrips" ~count:50 gen
    (fun ((n_threads, (mr, fr)), refs) ->
      let refs = Array.of_list refs in
      let t =
        {
          Mcsim.Trace.n_threads;
          mem_ratio = float_of_int mr /. 100.;
          fp_ratio = float_of_int fr /. 100.;
          refs = Array.make n_threads refs;
        }
      in
      let path = tmp_file ".v1" in
      Mcsim.Trace.save path t;
      Mcsim.Trace.load path = t)

(* --------------------------- replayer ------------------------------ *)

let small_config =
  (* tiny hierarchy so evictions happen quickly: 8-line 2-way L1,
     16-line 4-way L2, 32-line 4-way L3 *)
  {
    Replayer.l1 =
      { Replayer.lines = 8; assoc = 2; latency = 4; policy = Mcsim.Policy.Lru };
    l2 =
      { Replayer.lines = 16; assoc = 4; latency = 14; policy = Mcsim.Policy.Lru };
    l3 =
      Some
        { Replayer.lines = 32; assoc = 4; latency = 42;
          policy = Mcsim.Policy.Lru };
    mem_latency = 200;
    line_bytes = 64;
    n_cores = 2;
  }

let test_replayer_basics () =
  let r = Replayer.create Replayer.default_config in
  let o = Replayer.step r ~tid:0 ~write:false ~addr:0x1000 in
  Alcotest.(check int) "cold miss level" 3 o.Replayer.level;
  Alcotest.(check int) "cold miss cycles" (4 + 14 + 42 + 200)
    o.Replayer.cycles;
  let o = Replayer.step r ~tid:0 ~write:false ~addr:0x1008 in
  Alcotest.(check int) "same-line hit level" 0 o.Replayer.level;
  Alcotest.(check int) "L1 hit cycles" 4 o.Replayer.cycles;
  let s = Replayer.summary r in
  Alcotest.(check int) "accesses" 2 s.Replayer.accesses;
  Alcotest.(check int) "l1 hits" 1 s.Replayer.l1_hits;
  Alcotest.(check int) "mem accesses" 1 s.Replayer.mem_accesses

let test_replayer_coherence () =
  let r = Replayer.create small_config in
  (* core 0 dirties a line; core 1's read must c2c it *)
  ignore (Replayer.step r ~tid:0 ~write:true ~addr:0x400);
  let o = Replayer.step r ~tid:1 ~write:false ~addr:0x400 in
  Alcotest.(check bool) "read of peer-dirty is c2c" true o.Replayer.c2c;
  (* core 1 writes: core 0's copy must be invalidated *)
  let o = Replayer.step r ~tid:1 ~write:true ~addr:0x400 in
  Alcotest.(check bool) "write invalidates peer" true
    (o.Replayer.invalidations > 0);
  let s = Replayer.summary r in
  Alcotest.(check int) "c2c transfers" 1 s.Replayer.c2c_transfers;
  Alcotest.(check bool) "invalidations counted" true
    (s.Replayer.invalidations > 0)

(* A deterministic access mix over two working sets (LCG, fixed seed). *)
let synthetic_records n =
  let state = ref 0x12345678 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state
  in
  Array.init n (fun _ ->
      let r = next () in
      let addr =
        if r land 3 < 3 then (r lsr 2) land 0xFFF (* 4 KB hot *)
        else 0x100000 + ((r lsr 2) land 0xFFFF) (* 64 KB cold *)
      in
      (r lsr 20 land 3, r land 4 = 0, addr))

let replay_csv config recs =
  let r = Replayer.create config in
  let b = Buffer.create 4096 in
  Buffer.add_string b Report.csv_header;
  Buffer.add_char b '\n';
  Array.iteri
    (fun seq (tid, write, addr) ->
      let o = Replayer.step r ~tid ~write ~addr in
      Report.append_csv_row b ~seq ~tid ~write ~addr
        ~line_bytes:config.Replayer.line_bytes o)
    recs;
  (Buffer.contents b, Replayer.summary r)

let test_replay_deterministic () =
  let recs = synthetic_records 5_000 in
  let csv1, s1 = replay_csv small_config recs in
  let csv2, s2 = replay_csv small_config recs in
  Alcotest.(check bool) "CSV byte-identical" true (String.equal csv1 csv2);
  Alcotest.(check bool) "summaries identical" true (s1 = s2);
  (* and with a non-LRU preset *)
  let cfg =
    match Mcsim.Policy.preset_of_string "skl" with
    | Ok p -> Replayer.with_preset p small_config
    | Error _ -> assert false
  in
  let csv3, _ = replay_csv cfg recs in
  let csv4, _ = replay_csv cfg recs in
  Alcotest.(check bool) "skl CSV byte-identical" true
    (String.equal csv3 csv4);
  Alcotest.(check bool) "policies change the stream" true
    (not (String.equal csv1 csv3))

let test_replay_golden () =
  (* pins the exact per-access stream of a tiny replay; a change here is
     a semantic change to the replayer or the CSV schema *)
  let recs =
    [| (0, false, 0x0); (0, false, 0x40); (0, true, 0x0); (1, false, 0x0);
       (1, true, 0x40); (0, false, 0x40) |]
  in
  let csv, _ = replay_csv small_config recs in
  (* seq 3: tid 1's read finds tid 0's dirty copy — c2c downgrade, dirty
     data pushed down, served from the shared L3 (4+14+42 cycles); seq 4/5
     likewise hit the shared L3 after the peer's fill. *)
  let expected =
    "seq,tid,op,addr,level,cycles,victims,reason\n\
     0,0,R,0x0,MEM,260,-,cold\n\
     1,0,R,0x40,MEM,260,-,cold\n\
     2,0,W,0x0,L1,4,-,hit\n\
     3,1,R,0x0,L3,60,-,cold\n\
     4,1,W,0x40,L3,60,-,cold\n\
     5,0,R,0x40,L3,60,-,cold\n"
  in
  Alcotest.(check string) "golden CSV" expected csv

let test_replayer_bad_geometry () =
  let bad =
    { small_config with Replayer.line_bytes = 48 (* not a power of two *) }
  in
  (match Replayer.create bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 line_bytes accepted");
  let bad =
    {
      small_config with
      Replayer.l1 =
        { Replayer.lines = 12; assoc = 3; latency = 1;
          policy = Mcsim.Policy.Tree_plru };
    }
  in
  match Replayer.create bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 Tree-PLRU associativity accepted"

(* ------------------------- per-access rows ------------------------- *)

(* The [Printf] encoders the row writers replaced, kept as the reference
   their output must equal byte for byte. *)
module Printf_rows = struct
  let victims b ~line_bytes ~sep ~one (o : Replayer.outcome) =
    let any = ref false in
    List.iter
      (fun (lvl, packed) ->
        if packed >= 0 then begin
          if !any then Buffer.add_char b sep;
          any := true;
          one lvl ((packed lsr 2) * line_bytes) (packed land 3 = 3)
        end)
      [ ("L1", o.Replayer.l1_victim); ("L2", o.Replayer.l2_victim);
        ("L3", o.Replayer.l3_victim) ];
    !any

  let level = function 0 -> "L1" | 1 -> "L2" | 2 -> "L3" | _ -> "MEM"

  let reason (o : Replayer.outcome) =
    if o.Replayer.level = 0 then "hit"
    else if
      o.Replayer.l1_victim < 0 && o.Replayer.l2_victim < 0
      && o.Replayer.l3_victim < 0
    then "cold"
    else "evict"

  let csv b ~seq ~tid ~write ~addr ~line_bytes (o : Replayer.outcome) =
    Printf.bprintf b "%d,%d,%c,0x%x,%s,%d," seq tid
      (if write then 'W' else 'R')
      addr (level o.Replayer.level) o.Replayer.cycles;
    if
      not
        (victims b ~line_bytes ~sep:';' o ~one:(fun lvl a d ->
             Printf.bprintf b "%s:0x%x:%c" lvl a (if d then 'd' else 'c')))
    then Buffer.add_char b '-';
    Printf.bprintf b ",%s\n" (reason o)

  let jsonl b ~seq ~tid ~write ~addr ~line_bytes (o : Replayer.outcome) =
    Printf.bprintf b
      {|{"seq":%d,"tid":%d,"op":"%c","addr":"0x%x","level":"%s","cycles":%d,"victims":[|}
      seq tid
      (if write then 'W' else 'R')
      addr (level o.Replayer.level) o.Replayer.cycles;
    ignore
      (victims b ~line_bytes ~sep:',' o ~one:(fun lvl a d ->
           Printf.bprintf b {|{"level":"%s","addr":"0x%x","dirty":%b}|} lvl a d)
        : bool);
    Printf.bprintf b {|],"reason":"%s"}|} (reason o);
    Buffer.add_char b '\n'
end

let outcome ~level ~cycles (v1, v2, v3) =
  {
    Replayer.level; cycles; l1_victim = v1; l2_victim = v2; l3_victim = v3;
    writebacks = 0; invalidations = 0; c2c = false;
  }

let prop_row_encoders =
  let open QCheck.Gen in
  let max_addr = Trace_io.max_addr in
  (* small values, boundaries, powers of two, the full range, and
     negatives (which the replayer never produces; the encoders still
     match [%d] and [%x] on them) *)
  let wide =
    frequency
      [ (3, int_range 0 15); (3, int_range 0 max_addr); (1, return max_addr);
        (3, map (fun k -> (1 lsl k) - 1) (int_range 1 62));
        (1, int_range min_int (-1)) ]
  in
  let line_bytes = oneofl [ 1; 8; 64; 128; 4096 ] in
  (* absent, or a line with its MESI state (3 = dirty) *)
  let victim lb =
    oneof
      [ return (-1);
        map2 (fun a st -> ((a / lb) lsl 2) lor st) wide (int_range 0 3) ]
  in
  let gen =
    line_bytes >>= fun lb ->
    tup4 (tup4 wide wide bool wide) (int_range 0 3) wide
      (triple (victim lb) (victim lb) (victim lb))
    >|= fun r -> (lb, r)
  in
  QCheck.Test.make ~name:"row encoders = Printf reference" ~count:2000
    (QCheck.make gen)
    (fun (line_bytes, ((seq, tid, write, addr), level, cycles, vs)) ->
      let o = outcome ~level ~cycles vs in
      let render f =
        let b = Buffer.create 64 in
        f b ~seq ~tid ~write ~addr ~line_bytes o;
        Buffer.contents b
      in
      String.equal (render Report.append_csv_row) (render Printf_rows.csv)
      && String.equal
           (render Report.append_jsonl_row)
           (render Printf_rows.jsonl))

(* Rows go straight into a pre-sized buffer: no per-row allocation. *)
let test_row_encoders_alloc () =
  let n = 10_000 in
  let outcomes =
    Array.init n (fun i ->
        let v k =
          if (i lsr k) land 1 = 0 then -1 else ((i * 977) lsl 2) lor (i land 3)
        in
        outcome ~level:(i land 3) ~cycles:(i * 7) (v 0, v 1, v 2))
  in
  List.iter
    (fun (name, append) ->
      let b = Buffer.create (n * 256) in
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        append b ~seq:i ~tid:(i land 7) ~write:(i land 1 = 1)
          ~addr:(i * 0x1234567) ~line_bytes:64 outcomes.(i)
      done;
      let per_row = (Gc.minor_words () -. w0) /. float_of_int n in
      if per_row >= 0.5 then
        Alcotest.failf "%s: %.2f minor words per row" name per_row)
    [ ("csv", Report.append_csv_row); ("jsonl", Report.append_jsonl_row) ]

(* ------------------------- sharded replay -------------------------- *)

let with_policy p cores cfg =
  let lv (l : Replayer.level) = { l with Replayer.policy = p } in
  {
    cfg with
    Replayer.l1 = lv cfg.Replayer.l1;
    l2 = lv cfg.Replayer.l2;
    l3 = Option.map lv cfg.Replayer.l3;
    n_cores = cores;
  }

let all_policies =
  [
    Mcsim.Policy.Lru;
    Mcsim.Policy.Tree_plru;
    Mcsim.Policy.Qlru { h2 = 1; h3 = 1; m = 1; r = 0; u = 0 };
    Mcsim.Policy.Mru;
    Mcsim.Policy.Mru_n;
  ]

let run_sharded_csv ~jobs ~bits cfg source =
  let b = Buffer.create 4096 in
  Buffer.add_string b Report.csv_header;
  Buffer.add_char b '\n';
  let render buf ~seq ~tid ~write ~addr o =
    Report.append_csv_row buf ~seq ~tid ~write ~addr
      ~line_bytes:cfg.Replayer.line_bytes o
  in
  let s, diags =
    Replayer.run_sharded ~jobs ~bits ~render ~emit:(Buffer.add_string b) cfg
      source
  in
  (Buffer.contents b, s, diags)

let test_shard_plan () =
  (* small_config: 4 / 4 / 8 sets, so at most 2 shared set-index bits *)
  (match Replayer.shard_plan small_config ~bits:8 with
  | Ok m -> Alcotest.(check int) "clamped to min level set bits" 2 m
  | Error d -> Alcotest.failf "unexpected: %s" d.Cacti_util.Diag.reason);
  (match Replayer.shard_plan small_config ~bits:1 with
  | Ok m -> Alcotest.(check int) "request honoured" 1 m
  | Error _ -> Alcotest.fail "bits:1 rejected");
  (match Replayer.shard_plan small_config ~bits:0 with
  | Ok m -> Alcotest.(check int) "0 bits is serial" 0 m
  | Error _ -> Alcotest.fail "bits:0 rejected");
  let check_unsupported name cfg =
    match Replayer.shard_plan cfg ~bits:2 with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error d ->
        Alcotest.(check string) (name ^ " reason") "shard_unsupported"
          d.Cacti_util.Diag.reason;
        Alcotest.(check bool) (name ^ " is a warning") true
          (d.Cacti_util.Diag.severity = Cacti_util.Diag.Warning)
  in
  check_unsupported "non-pow2 line_bytes"
    { small_config with Replayer.line_bytes = 48 };
  check_unsupported "non-pow2 set count"
    {
      small_config with
      Replayer.l2 =
        { Replayer.lines = 24; assoc = 4; latency = 14;
          policy = Mcsim.Policy.Lru };
    }

(* A geometry the planner rejects still replays — serially, with the
   typed warning surfaced — and matches the plain serial path exactly. *)
let test_sharded_fallback () =
  let cfg =
    {
      small_config with
      Replayer.l2 =
        { Replayer.lines = 24; assoc = 4; latency = 14;
          policy = Mcsim.Policy.Lru };
    }
  in
  let recs = synthetic_records 2_000 in
  let serial_csv, serial_sum = replay_csv cfg recs in
  let source = Trace_io.Packed (Trace_io.of_records recs) in
  let csv, sum, diags = run_sharded_csv ~jobs:4 ~bits:2 cfg source in
  Alcotest.(check bool) "fell back with a diagnostic" true
    (List.exists
       (fun d -> d.Cacti_util.Diag.reason = "shard_unsupported")
       diags);
  Alcotest.(check bool) "summary equals serial" true (sum = serial_sum);
  Alcotest.(check string) "stream equals serial" serial_csv csv

(* Sharded replay is bit-identical to serial for every policy kind and
   core count, from both Packed (text) and Mapped (mmap) sources. *)
let test_sharded_all_policies () =
  let recs = synthetic_records 3_000 in
  let path = write_binary_trace recs in
  let mapped = Trace_io.load_source path in
  let packed = Trace_io.Packed (Trace_io.of_records recs) in
  List.iter
    (fun p ->
      List.iter
        (fun cores ->
          let cfg = with_policy p cores small_config in
          let name =
            Printf.sprintf "%s/%d-core" (Mcsim.Policy.to_string p) cores
          in
          let serial_csv, serial_sum = replay_csv cfg recs in
          List.iter
            (fun source ->
              let csv, sum, _ = run_sharded_csv ~jobs:4 ~bits:2 cfg source in
              Alcotest.(check bool) (name ^ " summary") true
                (sum = serial_sum);
              Alcotest.(check string) (name ^ " stream") serial_csv csv)
            [ packed; mapped ])
        [ 1; 2; 4 ])
    all_policies

let run_sharded_render ?jobs ?bits ~render cfg source =
  let b = Buffer.create 4096 in
  let s, _ =
    Replayer.run_sharded ?jobs ?bits ~render ~emit:(Buffer.add_string b) cfg
      source
  in
  (Buffer.contents b, s)

(* Rows are delimited by the extents each render call wrote, not by
   newlines: renders writing no line, several lines, no newline or a row
   longer than one 64 KB output slab all merge back to the serial
   stream. *)
let test_sharded_render_extents () =
  let recs = synthetic_records 3_000 in
  let cfg = small_config in
  let line_bytes = cfg.Replayer.line_bytes in
  let csv b ~seq ~tid ~write ~addr o =
    Report.append_csv_row b ~seq ~tid ~write ~addr ~line_bytes o
  in
  let renders : (string * Replayer.render) list =
    [
      ("empty", fun _ ~seq:_ ~tid:_ ~write:_ ~addr:_ _ -> ());
      ( "two lines",
        fun b ~seq ~tid ~write ~addr o ->
          csv b ~seq ~tid ~write ~addr o;
          Printf.bprintf b "# after %d\n" seq );
      ( "0, 1 or 2 lines",
        fun b ~seq ~tid ~write ~addr o ->
          for _ = 1 to seq mod 3 do
            csv b ~seq ~tid ~write ~addr o
          done );
      ( "no newline",
        fun b ~seq ~tid:_ ~write:_ ~addr:_ o ->
          Printf.bprintf b "%d:%d " seq o.Replayer.cycles );
      ( "rows longer than a slab",
        fun b ~seq ~tid ~write ~addr o ->
          if seq mod 1000 = 7 then Buffer.add_string b (String.make 70_000 'x');
          csv b ~seq ~tid ~write ~addr o );
    ]
  in
  let sources =
    [
      ("packed", Trace_io.Packed (Trace_io.of_records recs));
      ("mapped", Trace_io.load_source (write_binary_trace recs));
    ]
  in
  List.iter
    (fun (rname, render) ->
      List.iter
        (fun (sname, source) ->
          let serial, serial_sum =
            run_sharded_render ~jobs:1 ~bits:0 ~render cfg source
          in
          if rname = "empty" then
            Alcotest.(check string) "empty render writes nothing" "" serial;
          List.iter
            (fun (jobs, bits) ->
              let name =
                Printf.sprintf "%s/%s jobs %d bits %d" rname sname jobs bits
              in
              let out, sum =
                run_sharded_render ~jobs ~bits ~render cfg source
              in
              Alcotest.(check bool) (name ^ " summary") true (sum = serial_sum);
              Alcotest.(check string) name serial out)
            [ (1, 2); (2, 1); (4, 2) ])
        sources)
    renders

(* Sharded JSONL is byte-identical to a serial JSONL replay. *)
let test_sharded_jsonl () =
  let recs = synthetic_records 3_000 in
  let cfg = small_config in
  let line_bytes = cfg.Replayer.line_bytes in
  let serial =
    let r = Replayer.create cfg in
    let b = Buffer.create 4096 in
    Array.iteri
      (fun seq (tid, write, addr) ->
        Report.append_jsonl_row b ~seq ~tid ~write ~addr ~line_bytes
          (Replayer.step r ~tid ~write ~addr))
      recs;
    Buffer.contents b
  in
  let render b ~seq ~tid ~write ~addr o =
    Report.append_jsonl_row b ~seq ~tid ~write ~addr ~line_bytes o
  in
  List.iter
    (fun (sname, source) ->
      List.iter
        (fun jobs ->
          let out, _ = run_sharded_render ~jobs ~render cfg source in
          Alcotest.(check string) (Printf.sprintf "%s jobs %d" sname jobs)
            serial out)
        [ 1; 4 ])
    [
      ("packed", Trace_io.Packed (Trace_io.of_records recs));
      ("mapped", Trace_io.load_source (write_binary_trace recs));
    ]

let prop_sharded_identity =
  let gen =
    QCheck.(
      triple (int_range 0 4) (int_range 0 2)
        (list_of_size (Gen.int_range 0 200)
           (triple (int_range 0 7) bool (int_range 0 0xFFFFF))))
  in
  QCheck.Test.make
    ~name:"sharded replay = serial (jobs x bits x policy x cores)" ~count:12
    gen
    (fun (pidx, cidx, recs) ->
      let p = List.nth all_policies pidx in
      let cores = [| 1; 2; 4 |].(cidx) in
      let cfg = with_policy p cores small_config in
      let recs = Array.of_list recs in
      let serial_csv, serial_sum = replay_csv cfg recs in
      let source = Trace_io.Packed (Trace_io.of_records recs) in
      List.for_all
        (fun jobs ->
          List.for_all
            (fun bits ->
              let csv, sum, _ = run_sharded_csv ~jobs ~bits cfg source in
              sum = serial_sum && String.equal csv serial_csv)
            [ 0; 1; 2; 3 ])
        [ 1; 2; 4 ])

let () =
  Alcotest.run "replay"
    [
      ( "policy",
        [
          Alcotest.test_case "parse" `Quick test_policy_parse;
          Alcotest.test_case "reject unknown names" `Quick test_policy_reject;
          Alcotest.test_case "CPU preset table" `Quick test_presets;
          QCheck_alcotest.to_alcotest prop_qlru_roundtrip;
        ] );
      ( "golden sequences",
        [
          Alcotest.test_case "LRU" `Quick test_golden_lru;
          Alcotest.test_case "Tree-PLRU" `Quick test_golden_tree_plru;
          Alcotest.test_case "QLRU_H11_M1_R0_U0" `Quick test_golden_qlru_r0_u0;
          Alcotest.test_case "QLRU_H00_M1_R0_U1" `Quick test_golden_qlru_r0_u1;
          Alcotest.test_case "QLRU_H11_M1_R1_U2" `Quick test_golden_qlru_r1_u2;
          Alcotest.test_case "MRU" `Quick test_golden_mru;
          Alcotest.test_case "MRU_N fallback" `Quick test_golden_mru_n;
          Alcotest.test_case "LRU engine bit-identity" `Quick
            test_lru_engine_identity;
        ] );
      ( "trace io",
        [
          Alcotest.test_case "text parse" `Quick test_text_parse;
          Alcotest.test_case "text malformed" `Quick test_text_malformed;
          Alcotest.test_case "binary malformed" `Quick test_binary_malformed;
          Alcotest.test_case "format detection" `Quick test_detect;
          Alcotest.test_case "mapped parity (multi-chunk)" `Quick
            test_map_binary;
          Alcotest.test_case "mapped malformed" `Quick test_map_malformed;
          Alcotest.test_case "convert missing output dir" `Quick
            test_convert_output_dir;
          Alcotest.test_case "bucket = naive model" `Quick test_bucket_model;
          Alcotest.test_case "bucket refuses malformed records" `Quick
            test_bucket_malformed;
          QCheck_alcotest.to_alcotest
            (prop_writer_roundtrip Trace_io.Text "text writer roundtrips");
          QCheck_alcotest.to_alcotest
            (prop_writer_roundtrip Trace_io.Binary "binary writer roundtrips");
          QCheck_alcotest.to_alcotest prop_convert_roundtrip;
          QCheck_alcotest.to_alcotest prop_packed_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_v1_roundtrip;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "levels and cycles" `Quick test_replayer_basics;
          Alcotest.test_case "coherence" `Quick test_replayer_coherence;
          Alcotest.test_case "deterministic output" `Quick
            test_replay_deterministic;
          Alcotest.test_case "golden per-access stream" `Quick
            test_replay_golden;
          Alcotest.test_case "bad geometry rejected" `Quick
            test_replayer_bad_geometry;
          QCheck_alcotest.to_alcotest prop_row_encoders;
          Alcotest.test_case "row encoders allocate nothing" `Quick
            test_row_encoders_alloc;
        ] );
      ( "sharded replay",
        [
          Alcotest.test_case "shard plan" `Quick test_shard_plan;
          Alcotest.test_case "unsupported geometry falls back" `Quick
            test_sharded_fallback;
          Alcotest.test_case "all policies, all core counts" `Quick
            test_sharded_all_policies;
          Alcotest.test_case "rows delimited by extents" `Quick
            test_sharded_render_extents;
          Alcotest.test_case "JSONL equals serial" `Quick test_sharded_jsonl;
          QCheck_alcotest.to_alcotest prop_sharded_identity;
        ] );
    ]
