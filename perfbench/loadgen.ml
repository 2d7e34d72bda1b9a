(* Load generator for the JSON-lines serving protocol: one thread, a few
   Unix-socket connections, [Unix.select] for both pacing and reading.

   Open loop: request [i] is due at [t0 + i / rate] on connection
   [i mod conns], whether or not earlier requests have been answered, and
   its latency is timed from that due time — so a stall in the sender or
   the server is charged to every request queued behind it. [rate =
   infinity] makes every request due at [t0] (a burst). Closed loop: each
   connection keeps exactly one request in flight; a request is due when
   it is sent.

   The server answers in request order per connection, so the k-th
   response line on a connection belongs to the k-th request sent on it. *)

type mode = Open of float | Closed

type result = {
  due : float array;
  sent : float array;  (** nan when never sent *)
  answered : float array;  (** nan when never answered *)
  status : string array;  (** ["ok"], ["overloaded"], ...; [""] unanswered *)
}

type conn = {
  fd : Unix.file_descr;
  mutable buf : string;  (** bytes read past the last newline *)
  pending : int Queue.t;
  mutable dead : bool;
}

(* The response's "status" field, found without parsing the whole line:
   the server prints ["{"id":..,"status":"<s>",...}"]. *)
let status_of line =
  let key = "\"status\":\"" in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then ""
    else if String.sub line i k = key then
      match String.index_from_opt line (i + k) '"' with
      | Some j -> String.sub line (i + k) (j - i - k)
      | None -> ""
    else find (i + 1)
  in
  find 0

let rec write_all fd s off len =
  if len > 0 then begin
    let w = Unix.write_substring fd s off len in
    write_all fd s (off + w) (len - w)
  end

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

(* Send [n] requests ([body i] is request [i]'s line, without newline)
   over [fds] and collect the answers. Returns once every sent request is
   answered, or [drain_s] seconds after the last send. [on_line i line]
   sees every response line. *)
let run ?(on_line = fun _ _ -> ()) ~fds ~mode ~n ~body ~drain_s () =
  let conns =
    Array.of_list
      (List.map
         (fun fd -> { fd; buf = ""; pending = Queue.create (); dead = false })
         fds)
  in
  let nc = Array.length conns in
  let due = Array.make n nan
  and sent = Array.make n nan
  and answered = Array.make n nan
  and status = Array.make n "" in
  let t0 = Clock.now () in
  let next = ref 0 and outstanding = ref 0 and last_send = ref t0 in
  let send c i =
    let conn = conns.(c) in
    if conn.dead then incr next
    else begin
      let line = body i ^ "\n" in
      (match write_all conn.fd line 0 (String.length line) with
      | () ->
        sent.(i) <- Clock.now ();
        last_send := sent.(i);
        Queue.push i conn.pending;
        incr outstanding
      | exception Unix.Unix_error _ -> conn.dead <- true);
      incr next
    end
  in
  let chunk = Bytes.create 65536 in
  let read conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> conn.dead <- true
    | exception Unix.Unix_error _ -> conn.dead <- true
    | k ->
      let now = Clock.now () in
      let data = conn.buf ^ Bytes.sub_string chunk 0 k in
      let lines = String.split_on_char '\n' data in
      let rec go = function
        | [ rest ] -> conn.buf <- rest
        | line :: tl ->
          (match Queue.take_opt conn.pending with
          | Some i ->
            answered.(i) <- now;
            status.(i) <- status_of line;
            decr outstanding;
            on_line i line
          | None -> ());
          go tl
        | [] -> conn.buf <- ""
      in
      go lines
  in
  let live () = Array.exists (fun c -> not c.dead) conns in
  let rec loop () =
    let now = Clock.now () in
    (match mode with
    | Open rate ->
      let rec send_due () =
        if !next < n then begin
          let d = t0 +. (float_of_int !next /. rate) in
          if d <= now then begin
            due.(!next) <- d;
            send (!next mod nc) !next;
            send_due ()
          end
        end
      in
      send_due ()
    | Closed ->
      Array.iteri
        (fun c conn ->
          if !next < n && Queue.is_empty conn.pending && not conn.dead then begin
            due.(!next) <- Clock.now ();
            send c !next
          end)
        conns);
    let finished =
      (!next >= n && !outstanding = 0)
      || (!next >= n && Clock.now () -. !last_send > drain_s)
      || not (live ())
    in
    if not finished then begin
      let timeout =
        match mode with
        | Open rate when !next < n ->
          Float.max 0.0 (t0 +. (float_of_int !next /. rate) -. Clock.now ())
        | _ -> 0.05
      in
      let fds =
        Array.to_list conns
        |> List.filter (fun c -> not c.dead)
        |> List.map (fun c -> c.fd)
      in
      (match Unix.select fds [] [] timeout with
      | r, _, _ ->
        Array.iter (fun c -> if List.mem c.fd r then read c) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  { due; sent; answered; status }

let latency_ms r i = (r.answered.(i) -. r.due.(i)) *. 1e3
let is_answered r i = not (Float.is_nan r.answered.(i))
