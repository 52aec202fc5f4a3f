(* The server front-end: listeners, the accept loop, and graceful
   shutdown.  All the interesting concurrency lives in Scheduler /
   Session / Group_commit; this module just wires sockets to sessions
   and sequences the drain.

   Shutdown ([shutdown], triggered by SIGTERM/SIGINT in the CLI):
     1. Scheduler.begin_stop — the stop pipe wakes every session's
        select permanently; new connections are refused.
     2. close the listeners (accept loops exit).
     3. cancel in-flight statements (cooperative, via each session's
        governor) and join every session thread.
     4. flush + fsync the WAL and checkpoint, so a restart recovers
        from the checkpoint instead of replaying the whole log.  Fault
        site "shutdown_drain" fires before the checkpoint: an injected
        crash here must still recover every acknowledged commit from
        the WAL alone — which is exactly what the fuzzer checks. *)

module Fault = Sqlgraph.Fault

type t = {
  sched : Scheduler.t;
  mu : Mutex.t;
  mutable sessions : Session.t list; (* joined (and dropped) at shutdown *)
  mutable listeners : (Unix.file_descr * Thread.t) list;
  mutable unix_path : string option; (* socket file to unlink on shutdown *)
  mutable shut : bool;
}

let create ?config ~db ~store () =
  {
    sched = Scheduler.create ?config ~db ~store ();
    mu = Mutex.create ();
    sessions = [];
    listeners = [];
    unix_path = None;
    shut = false;
  }

let scheduler t = t.sched

(* Best effort: the peer may already be gone. *)
let refuse fd lines =
  (try Protocol.write_lines fd lines with _ -> ());
  try Unix.close fd with _ -> ()

(* Admit one connected fd: either spawn a session or refuse on the
   socket itself.  Shared by the accept loops and [attach] (the
   socketpair harness used by tests and the bench). *)
let serve_fd t fd =
  Fault.hit ~site:"accept";
  match Scheduler.admit t.sched with
  | `Ok sid ->
    let s = Session.spawn t.sched ~sid fd in
    Mutex.lock t.mu;
    t.sessions <- s :: t.sessions;
    Mutex.unlock t.mu
  | `Full ->
    let cfg = Scheduler.config t.sched in
    refuse fd
      [
        Protocol.err_busy ~retry_ms:cfg.busy_retry_ms
          "server at session capacity";
        Protocol.bye "session cap";
      ]
  | `Stopping -> refuse fd [ Protocol.bye "server shutting down" ]

let attach t fd =
  try serve_fd t fd
  with exn ->
    (try Unix.close fd with _ -> ());
    raise exn

(* Accept loop: select on the listener and the stop pipe, accept and
   hand off.  An injected "accept" fault drops that one connection —
   the server keeps serving. *)
let accept_loop t lfd =
  let stop = Scheduler.stop_fd t.sched in
  let rec go () =
    match Unix.select [ lfd; stop ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    | ready, _, _ when List.mem stop ready -> ()
    | ready, _, _ when List.mem lfd ready -> (
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        (try serve_fd t fd
         with Fault.Injected _ -> ( try Unix.close fd with _ -> ()));
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception _ -> go ())
    | _ -> go ()
  in
  go ()

let add_listener t lfd =
  Unix.listen lfd 64;
  let th = Thread.create (accept_loop t) lfd in
  Mutex.lock t.mu;
  t.listeners <- (lfd, th) :: t.listeners;
  Mutex.unlock t.mu

let listen_unix t path =
  (try Unix.unlink path with _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  t.unix_path <- Some path;
  add_listener t lfd

let listen_tcp t host port =
  let addr =
    if host = "" then Unix.inet_addr_loopback else Unix.inet_addr_of_string host
  in
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (addr, port));
  add_listener t lfd

let bound_port t =
  Mutex.lock t.mu;
  let port =
    List.find_map
      (fun (lfd, _) ->
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> Some p
        | _ -> None)
      t.listeners
  in
  Mutex.unlock t.mu;
  port

let shutdown t =
  Mutex.lock t.mu;
  let already = t.shut in
  t.shut <- true;
  Mutex.unlock t.mu;
  if not already then begin
    Scheduler.begin_stop t.sched;
    Mutex.lock t.mu;
    let listeners = t.listeners in
    t.listeners <- [];
    Mutex.unlock t.mu;
    List.iter (fun (lfd, _) -> try Unix.close lfd with _ -> ()) listeners;
    List.iter (fun (_, th) -> Thread.join th) listeners;
    (match t.unix_path with
    | Some p -> ( try Unix.unlink p with _ -> ())
    | None -> ());
    (* Drain sessions only after the accept loops are joined, and loop:
       a connection accepted just before begin_stop may be appended to
       [t.sessions] concurrently with the first snapshot, and it too
       must be cancelled and joined before we checkpoint and exit. *)
    let rec drain_sessions () =
      Mutex.lock t.mu;
      let sessions = t.sessions in
      t.sessions <- [];
      Mutex.unlock t.mu;
      if sessions <> [] then begin
        List.iter Session.cancel sessions;
        List.iter Session.join sessions;
        drain_sessions ()
      end
    in
    drain_sessions ();
    (* drain done; make everything durable.  A crash injected at
       "shutdown_drain" leaves the WAL as the only source of truth —
       recovery must still produce every acknowledged commit. *)
    match Scheduler.store t.sched with
    | None -> ()
    | Some store -> (
      (* best-effort: a crashed or poisoned store refuses these, and
         recovery from the WAL alone must then reproduce every
         acknowledged commit — exactly what the fuzzer asserts *)
      try
        Fault.hit ~site:"shutdown_drain";
        Sqlgraph.Wal.flush_now store;
        Sqlgraph.Wal.fsync_now store;
        ignore (Sqlgraph.Wal.checkpoint store (Scheduler.db t.sched))
      with _ -> ())
  end
