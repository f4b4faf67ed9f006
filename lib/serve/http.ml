(* Dependency-free HTTP/1.1 transport: see http.mli for the mapping. *)

open Cacti_util

(* ----------------------------- limits ------------------------------- *)

let max_line = 8192
let max_headers = 64
let max_body = 1 lsl 20

(* ----------------------------- parsing ------------------------------ *)

type request = {
  meth : string;
  target : string;
  version : string;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* "METHOD SP target SP HTTP/x.y" — exactly three tokens. *)
let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] when meth <> "" && target <> "" ->
      if String.length version >= 5 && String.sub version 0 5 = "HTTP/" then
        Ok (meth, target, version)
      else Error (Printf.sprintf "bad HTTP version %S" version)
  | _ -> Error (Printf.sprintf "malformed request line %S" line)

(* "Name: value" with optional whitespace around the value; the name is
   lowercased so lookups are case-insensitive as RFC 9110 requires. *)
let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (Printf.sprintf "malformed header line %S" line)
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      Ok (name, value)

let header_value headers name =
  List.assoc_opt (String.lowercase_ascii name) headers

(* Should the connection stay open after this exchange?  HTTP/1.1
   defaults to keep-alive unless "Connection: close"; anything older
   closes unless it asked to keep alive. *)
let keep_alive req =
  let conn =
    Option.map String.lowercase_ascii (header_value req.headers "connection")
  in
  if req.version = "HTTP/1.1" then conn <> Some "close"
  else conn = Some "keep-alive"

(* Read one request off the channel.  Returns [`Eof] on a cleanly closed
   connection (EOF before any byte of a request line), [`Bad msg] on a
   malformed request — after which the connection must be closed, since
   the framing is lost.  [oc] is needed mid-read: a client that sent
   "Expect: 100-continue" (curl does, for bodies past ~1 KiB) blocks
   until the interim response arrives, so it must be written before the
   body is read. *)
let read_request ic oc =
  let line () = strip_cr (input_line ic) in
  match
    (* Tolerate blank line(s) between pipelined requests (RFC 9112 2.2). *)
    let rec first () =
      let l = line () in
      if l = "" then first () else l
    in
    first ()
  with
  | exception End_of_file -> `Eof
  | request_line when String.length request_line > max_line ->
      `Bad "request line too long"
  | request_line -> (
      match parse_request_line request_line with
      | Error msg -> `Bad msg
      | Ok (meth, target, version) -> (
          let rec read_headers acc n =
            if n > max_headers then Error "too many headers"
            else
              match line () with
              | "" -> Ok (List.rev acc)
              | l when String.length l > max_line -> Error "header too long"
              | l -> (
                  match parse_header l with
                  | Ok kv -> read_headers (kv :: acc) (n + 1)
                  | Error msg -> Error msg)
              | exception End_of_file -> Error "eof inside headers"
          in
          match read_headers [] 0 with
          | Error msg -> `Bad msg
          | Ok headers -> (
              if header_value headers "transfer-encoding" <> None then
                `Bad "chunked transfer encoding not supported"
              else
                match header_value headers "content-length" with
                | None -> `Req { meth; target; version; headers; body = "" }
                | Some s -> (
                    match int_of_string_opt (String.trim s) with
                    | None -> `Bad "malformed content-length"
                    | Some n when n < 0 -> `Bad "malformed content-length"
                    | Some n when n > max_body -> `Payload_too_large
                    | Some n -> (
                        (match header_value headers "expect" with
                        | Some e when String.lowercase_ascii e = "100-continue"
                          ->
                            output_string oc "HTTP/1.1 100 Continue\r\n\r\n";
                            flush oc
                        | _ -> ());
                        match really_input_string ic n with
                        | body -> `Req { meth; target; version; headers; body }
                        | exception End_of_file -> `Bad "eof inside body")))))

(* ----------------------------- responses ---------------------------- *)

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* Fixed-length responses only: Content-Length on every exchange keeps
   the framing trivial and keep-alive safe. *)
let write_response oc ~status ?(extra = []) ~keep_alive body =
  Chaos.fire "server.write";
  List.iter (output_string oc)
    [
      "HTTP/1.1 ";
      string_of_int status;
      " ";
      reason_phrase status;
      "\r\nContent-Type: application/json\r\nContent-Length: ";
      string_of_int (String.length body);
      (if keep_alive then "\r\nConnection: keep-alive\r\n"
       else "\r\nConnection: close\r\n");
    ];
  List.iter
    (fun (k, v) ->
      output_string oc k;
      output_string oc ": ";
      output_string oc v;
      output_string oc "\r\n")
    extra;
  output_string oc "\r\n";
  output_string oc body;
  flush oc

let error_body ~reason msg =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.Null);
         ("ok", Jsonx.Bool false);
         ( "diagnostics",
           Jsonx.List
             [
               Jsonx.Obj
                 [
                   ("severity", Jsonx.String "error");
                   ("component", Jsonx.String "http");
                   ("reason", Jsonx.String reason);
                   ("message", Jsonx.String msg);
                 ];
             ] );
       ])

(* Map a response's status to HTTP so load balancers can react without
   parsing the body: queue_full -> 429 (+ Retry-After, whole seconds,
   rounded up, at least 1), draining -> 503; every other outcome —
   including per-request errors like an invalid spec — is an in-band
   answer, hence 200.  The service hands the status over with the line,
   so no body is scanned or parsed here. *)
let http_status = function
  | Service.Answered -> (200, [])
  | Service.Draining -> (503, [])
  | Service.Queue_full retry_ms ->
      let retry_s =
        if Float.is_finite retry_ms then
          int_of_float (Float.ceil (retry_ms /. 1e3))
        else 1
      in
      (429, [ ("Retry-After", string_of_int (max 1 retry_s)) ])

(* ---------------------------- connection ---------------------------- *)

(* Block the connection thread until the admitted job's response lands.
   HTTP/1.1 without pipelining is one exchange at a time per connection,
   so one rendezvous per connection serves all of its exchanges:
   [admit]'s reply contract (called exactly once, possibly from a worker
   thread) guarantees the wait terminates and that no reply of an earlier
   exchange is still to land.  A warm hit replies before [admit]
   returns, so its wait finds the cell already filled. *)
type rendezvous = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable cell : (Service.status * string) option;
}

let solve_via_queue rv service line =
  Service.admit service
    ~reply:(fun status body ->
      Mutex.protect rv.lock (fun () ->
          rv.cell <- Some (status, body);
          Condition.signal rv.cond))
    line;
  Mutex.protect rv.lock (fun () ->
      let rec wait () =
        match rv.cell with
        | Some resp ->
            rv.cell <- None;
            resp
        | None ->
            Condition.wait rv.cond rv.lock;
            wait ()
      in
      wait ())

let healthz_body service =
  if Service.draining service then
    (503, {|{"status":"draining"}|})
  else (200, {|{"status":"ok"}|})

let handle_request rv service oc req =
  let keep = keep_alive req in
  (match (req.meth, req.target) with
  | "POST", "/solve" ->
      let line = Chaos.mangle "server.read" req.body in
      if String.trim line = "" then
        write_response oc ~status:400 ~keep_alive:keep
          (error_body ~reason:"bad_request" "empty request body")
      else begin
        let status, body = solve_via_queue rv service line in
        let status, extra = http_status status in
        write_response oc ~status ~extra ~keep_alive:keep body
      end
  | "GET", "/stats" ->
      let body = Service.handle_line service {|{"kind":"stats"}|} in
      write_response oc ~status:200 ~keep_alive:keep body
  | ("GET" | "HEAD"), "/healthz" ->
      (* Liveness probe: deliberately outside the request counters so a
         load balancer polling every second does not drown the stats. *)
      let status, body = healthz_body service in
      write_response oc ~status ~keep_alive:keep
        (if req.meth = "HEAD" then "" else body)
  | _, ("/solve" | "/stats" | "/healthz") ->
      let allow =
        match req.target with "/solve" -> "POST" | _ -> "GET, HEAD"
      in
      write_response oc ~status:405
        ~extra:[ ("Allow", allow) ]
        ~keep_alive:keep
        (error_body ~reason:"method_not_allowed"
           (Printf.sprintf "%s not allowed on %s" req.meth req.target))
  | _ ->
      write_response oc ~status:404 ~keep_alive:keep
        (error_body ~reason:"not_found"
           (Printf.sprintf "no such endpoint %s" req.target)));
  keep

(* Serve one connection until it closes, asks to close, or breaks
   framing.  The caller owns the fd (tracking and close). *)
let serve_conn service fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rv = { lock = Mutex.create (); cond = Condition.create (); cell = None } in
  let rec loop () =
    match read_request ic oc with
    | `Eof -> ()
    | `Payload_too_large ->
        (* the unread body poisons the framing: answer and close *)
        write_response oc ~status:413 ~keep_alive:false
          (error_body ~reason:"payload_too_large" "request body too large")
    | `Bad msg ->
        write_response oc ~status:400 ~keep_alive:false
          (error_body ~reason:"bad_request" msg)
    | `Req req -> if handle_request rv service oc req then loop ()
  in
  try loop () with Sys_error _ | Unix.Unix_error _ | End_of_file -> ()
