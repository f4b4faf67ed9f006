(* Reference model for [Cacti_server.Http.http_status]: the body-scanning
   classifier the transport used before the service handed each line's
   status over with it, kept verbatim (substring guard, then a parse of
   refusal bodies) as the oracle the status tests compare against. *)

open Cacti_util

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let status_of_body body =
  if not (contains_substring body "\"ok\":false") then (200, [])
  else
    match Jsonx.parse body with
    | Error _ -> (200, [])
    | Ok j -> (
        let reason =
          match Jsonx.member "diagnostics" j with
          | Some (Jsonx.List (d :: _)) -> (
              match Jsonx.member "reason" d with
              | Some (Jsonx.String r) -> Some r
              | _ -> None)
          | _ -> None
        in
        match reason with
        | Some "queue_full" ->
            let retry_s =
              match Jsonx.member "retry_after_ms" j with
              | Some v -> (
                  match Jsonx.get_float v with
                  | Some ms -> int_of_float (Float.ceil (ms /. 1e3))
                  | None -> 1)
              | None -> 1
            in
            (429, [ ("Retry-After", string_of_int (max 1 retry_s)) ])
        | Some "draining" -> (503, [])
        | _ -> (200, []))
