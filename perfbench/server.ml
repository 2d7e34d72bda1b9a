(* A server process under test: [infs_run serve ...] started as a child,
   its stderr/stdout captured to a log file, stopped with SIGTERM (the
   server's graceful drain) and reaped. *)

type t = { pid : int; socket : string; log : string }

let rec wait_ready ~pid ~socket ~deadline =
  match Loadgen.connect socket with
  | Ok fd ->
    Unix.close fd;
    Ok ()
  | Error e -> (
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> Error "server exited before accepting connections"
    | _ ->
      if Clock.now () > deadline then Error ("server never accepted: " ^ e)
      else begin
        Unix.sleepf 0.002;
        wait_ready ~pid ~socket ~deadline
      end)

(* Start [exe serve --socket socket args] and return once the socket
   accepts a connection. *)
let start ~exe ~socket ~log args =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list ((exe :: "serve" :: "--socket" :: socket :: args)) in
  let pid = Unix.create_process exe argv Unix.stdin fd fd in
  Unix.close fd;
  match wait_ready ~pid ~socket ~deadline:(Clock.now () +. 60.0) with
  | Ok () -> Ok { pid; socket; log }
  | Error e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Error e

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* Shard children announce themselves on the front's stderr as
   "serve: shard <i> pid <pid>". *)
let child_pids t =
  match read_file t.log with
  | None -> []
  | Some s ->
    List.filter_map
      (fun l -> try Scanf.sscanf l "serve: shard %d pid %d" (fun _ p -> Some p) with _ -> None)
      (String.split_on_char '\n' s)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc l ->
        try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        with _ -> acc)
      0.0 (String.split_on_char '\n' s)

(* Peak RSS of the server and every shard child it spawned. *)
let tree_peak_rss_mb t =
  List.fold_left (fun acc p -> acc +. peak_rss_mb p) 0.0 (t.pid :: child_pids t)

let rec reap pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | p, st when p = pid -> Some st
  | _ ->
    if Clock.now () > deadline then None
    else begin
      Unix.sleepf 0.005;
      reap pid ~deadline
    end

(* Graceful stop; true when the server drained and exited 0. A server that
   does not exit within 60 s is killed (with its shard children). *)
let stop t =
  let children = child_pids t in
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  match reap t.pid ~deadline:(Clock.now () +. 60.0) with
  | Some (Unix.WEXITED 0) -> true
  | Some _ -> false
  | None ->
    List.iter
      (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
      (t.pid :: children);
    ignore (Unix.waitpid [] t.pid);
    false
