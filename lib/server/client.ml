type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" && not (String.contains host '/') ->
          Tcp (host, p)
      | _ -> Unix_path s)
  | None -> Unix_path s

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type t = {
  mutable fd : Unix.file_descr;
  mutable reader : Protocol.reader;
  mutable dead : bool;
      (* [fd] has been closed and not replaced: the stored descriptor
         number may already belong to another thread's socket, so it
         must not be read, written, or closed again until a reconnect
         installs a fresh one. *)
  addr : addr option;  (* None for [of_fd]: no way to reconnect *)
  max_frame : int option;
}

let of_fd ?max_frame fd =
  {
    fd;
    reader = Protocol.reader_of_fd ?max_frame fd;
    dead = false;
    addr = None;
    max_frame;
  }

let dial addr =
  let domain, sockaddr =
    match addr with
    | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let of_addr ?max_frame addr =
  let fd = dial addr in
  {
    fd;
    reader = Protocol.reader_of_fd ?max_frame fd;
    dead = false;
    addr = Some addr;
    max_frame;
  }

let connect ?max_frame path = of_addr ?max_frame (Unix_path path)

let connect_tcp ?max_frame ~host ~port () =
  of_addr ?max_frame (Tcp (host, port))

let send c req = Protocol.write_frame c.fd (Protocol.encode_request req)
let send_raw c line = Protocol.write_frame c.fd line

let recv c =
  match Protocol.read_frame c.reader with
  | `Eof -> Error "connection closed by the daemon"
  | `Too_large n -> Error (Printf.sprintf "oversized reply frame (%d bytes)" n)
  | `Frame line -> Protocol.decode_reply line

let request c req =
  send c req;
  recv c

let close c =
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let reconnect c =
  match c.addr with
  | None -> false
  | Some addr -> (
      close c;
      match dial addr with
      | fd ->
          c.fd <- fd;
          c.reader <- Protocol.reader_of_fd ?max_frame:c.max_frame fd;
          c.dead <- false;
          true
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _) ->
          (* Nothing listening (yet): [c] stays dead and the caller's
             backoff loop decides whether to try again. *)
          false)

(* The transport failures a daemon restart produces, in order of where
   they strike: connect refused, send into a dead peer (EPIPE/reset),
   EOF instead of a reply.  Anything else — protocol errors, oversized
   frames — is not a restart symptom and propagates immediately. *)
let transport_failed f =
  match f () with
  | Ok _ as ok -> `Done ok
  | Error msg ->
      if msg = "connection closed by the daemon" then `Transport msg
      else `Done (Error msg)
  | exception
      Unix.Unix_error
        (( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
         | Unix.ENOTCONN | Unix.EBADF ),
         name,
         _) ->
      (* EBADF is not a restart symptom per se, but a socket closed out
         from under us deserves a reconnect, not a crash. *)
      `Transport (Printf.sprintf "%s: %s" name "connection lost")

let request_retry ?(attempts = 4) ?(backoff_ms = 50) c req =
  let attempts = max 1 attempts in
  let rec go n backoff last_err =
    if n >= attempts then
      Error
        (Printf.sprintf "request failed after %d attempt(s): %s" attempts
           last_err)
    else begin
      (if n > 0 then begin
         Thread.delay (float_of_int backoff /. 1000.);
         ignore (reconnect c)
       end);
      if c.dead then
        (* The last reconnect failed (daemon still down): the stored fd
           is stale, so don't touch it — just keep backing off. *)
        if c.addr = None then Error "connection closed"
        else
          go (n + 1)
            (min 2000 (backoff * 2))
            "reconnect failed: nothing listening at the daemon address"
      else
        match transport_failed (fun () -> request c req) with
        | `Done r -> r
        | `Transport msg ->
            if c.addr = None then
              (* [of_fd] clients own a socket we cannot re-open. *)
              Error msg
            else go (n + 1) (min 2000 (backoff * 2)) msg
    end
  in
  go 0 backoff_ms "unreachable"
