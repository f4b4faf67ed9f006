type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let num f = if Float.is_finite f then Float f else Null

let rec normalize = function
  | Float f when not (Float.is_finite f) -> Null
  | List l -> List (List.map normalize l)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, normalize v)) kvs)
  | v -> v

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.compare a b = 0 || (a = 0. && b = 0.)
  | String a, String b -> String.equal a b
  | List a, List b -> List.equal equal a b
  | Obj a, Obj b ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && equal v v') a b
  | _ -> false

(* ------------------------------ printing ------------------------------ *)

(* The C conversion behind [Printf]'s [%g]: the same text for a finite
   float, without interpreting a format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal that parses back bit-exactly; always contains '.' or
   'e' so the value re-parses as a float, not an int. *)
let float_repr f =
  let s =
    let s15 = format_float "%.15g" f in
    if float_of_string s15 = f then s15 else format_float "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        Buffer.add_string buf
          (if Float.is_finite f then float_repr f else "null")
    | String s -> escape_string buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            go x)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* Sort object keys recursively (byte order, stable) so two spellings of
   the same object print identically; array order and number spellings
   are preserved. *)
let rec canonicalize = function
  | Obj kvs ->
      Obj
        (List.stable_sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.map (fun (k, v) -> (k, canonicalize v)) kvs))
  | List l -> List (List.map canonicalize l)
  | v -> v

let to_canonical_string v = to_string (canonicalize v)

let to_string_pretty v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v ->
        Buffer.add_string buf (to_string v)
    | List [] -> Buffer.add_string buf "[]"
    | List l ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) x)
          l;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            escape_string buf k;
            Buffer.add_string buf ": ";
            go (indent + 2) x)
          kvs;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string_pretty v)

(* ------------------------------ parsing ------------------------------- *)

exception Err of int * string

(* 10^0 .. 10^22: every one an exact double. *)
let pow10 =
  let p = Array.make 23 1. in
  for i = 1 to 22 do
    p.(i) <- p.(i - 1) *. 10.
  done;
  p

(* One pass over the bytes with an explicit cursor.  Every read of [s] is
   guarded by an explicit comparison with [n] — the release profile
   compiles with [-unsafe], so these guards are the only bounds checks
   untrusted input gets.  The common cases allocate only what the tree
   holds: a string without escapes is one [String.sub], an integer of at
   most 18 digits is accumulated in place, and a short decimal converts
   without a substring (Clinger's exact case below). *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Err (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if at c then incr pos else err (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then (
      pos := !pos + l;
      v)
    else err (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then err "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> err "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
    else if cp < 0x10000 then (
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
    else (
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  in
  (* The rest of a string from its first backslash on, decoded into
     [buf]. *)
  let rec escaped buf =
    if !pos >= n then err "unterminated string";
    match s.[!pos] with
    | '"' -> incr pos
    | '\\' ->
        incr pos;
        if !pos >= n then err "unterminated escape";
        let c = s.[!pos] in
        incr pos;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            let cp = hex4 () in
            let cp =
              (* surrogate pair *)
              if cp >= 0xD800 && cp <= 0xDBFF then
                if !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then (
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  else err "invalid low surrogate")
                else err "unpaired high surrogate"
              else cp
            in
            add_utf8 buf cp
        | _ -> err (Printf.sprintf "invalid escape \\%c" c));
        escaped buf
    | c when Char.code c < 0x20 -> err "raw control byte in string"
    | c ->
        Buffer.add_char buf c;
        incr pos;
        escaped buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec plain i =
      if i >= n then (
        pos := i;
        err "unterminated string");
      match s.[i] with
      | '"' ->
          pos := i + 1;
          String.sub s start (i - start)
      | '\\' ->
          let buf = Buffer.create (i - start + 16) in
          Buffer.add_substring buf s start (i - start);
          pos := i;
          escaped buf;
          Buffer.contents buf
      | c when Char.code c < 0x20 ->
          pos := i;
          err "raw control byte in string"
      | _ -> plain (i + 1)
    in
    plain start
  in
  let is_digit () = !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false in
  (* Skip a non-empty digit run; returns where it started. *)
  let digits () =
    let d0 = !pos in
    while is_digit () do
      incr pos
    done;
    if !pos = d0 then err "expected digit";
    d0
  in
  (* The int value of the digit run [i0, i1), appended to [acc]; callers
     bound the run so the result cannot overflow. *)
  let rec digits_value i0 i1 acc =
    if i0 >= i1 then acc
    else digits_value (i0 + 1) i1 ((acc * 10) + (Char.code s.[i0] - Char.code '0'))
  in
  let parse_number () =
    let start = !pos in
    let neg = at '-' in
    if neg then incr pos;
    (* RFC 8259: no leading zeros in the integer part *)
    let d0 = digits () in
    let d1 = !pos in
    if d1 - d0 > 1 && s.[d0] = '0' then err "leading zero";
    let has_frac = at '.' in
    let f0 =
      if has_frac then (
        incr pos;
        digits ())
      else d1
    in
    let f1 = !pos in
    let has_exp = at 'e' || at 'E' in
    let exp_neg = ref false and e0 = ref f1 in
    if has_exp then (
      incr pos;
      if at '+' then incr pos
      else if at '-' then (
        exp_neg := true;
        incr pos);
      e0 := digits ());
    let e1 = !pos in
    let is_float = has_frac || has_exp in
    if (not is_float) && d1 - d0 <= 18 then
      (* At most 18 digits cannot overflow a 63-bit int. *)
      let v = digits_value d0 d1 0 in
      Int (if neg then -v else v)
    else
      let exp10 =
        (if e1 - !e0 > 3 then max_int / 2
         else
           let e = digits_value !e0 e1 0 in
           if !exp_neg then -e else e)
        - (f1 - f0)
      in
      (* Clinger's exact case: a mantissa of at most 15 digits (< 2^53)
         and a power of ten up to 10^22 are both exact doubles, so one
         IEEE multiply or divide rounds the quotient correctly — the
         same double [float_of_string] returns.  (An int gets here only
         with more than 18 digits.) *)
      if (d1 - d0) + (f1 - f0) <= 15 && exp10 >= -22 && exp10 <= 22 then
        let m = float_of_int (digits_value f0 f1 (digits_value d0 d1 0)) in
        let v =
          if exp10 >= 0 then m *. pow10.(exp10) else m /. pow10.(-exp10)
        in
        Float (if neg then -.v else v)
      else
        let text = String.sub s start (!pos - start) in
        if is_float then Float (float_of_string text)
        else
          match int_of_string_opt text with
          | Some i -> Int i
          | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then err "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            if at ',' then (
              incr pos;
              members ((k, v) :: acc))
            else if at '}' then (
              incr pos;
              Obj (List.rev ((k, v) :: acc)))
            else err "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then (
          incr pos;
          List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            if at ',' then (
              incr pos;
              elements (v :: acc))
            else if at ']' then (
              incr pos;
              List (List.rev (v :: acc)))
            else err "expected ',' or ']'"
          in
          elements []
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> err (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then err "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Err (p, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> failwith msg

(* ------------------------------ accessors ----------------------------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

let get_int = function
  | Int i -> Some i
  | Float f
    when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let get_list = function List l -> Some l | _ -> None
let get_obj = function Obj kvs -> Some kvs | _ -> None
