(* One measured round, run in a fresh process: restore the template data
   directory, time what a restarting server pays before it can answer
   (WAL recovery, graph-index warm-up, server start, greeting), then
   drive the workload through the real server over a socketpair in a
   closed loop — the connection waits for its reply before it sends the
   next statement. *)

module Db = Sqlgraph.Db
module Wal = Sqlgraph.Wal
module Server = Sqlgraph_server.Server
module Client = Sqlgraph_server.Client

let warmup_s = 1.0

(* p95 has ten samples beyond it from 200 samples on: a round measures
   past its share of --seconds, for at most twice that share, until it
   holds a third of those. *)
let min_key_samples = 67

type sample = {
  cls : Workload.cls;
  at : float;  (** completion, seconds into the measured window; < 0 in the warm-up *)
  ms : float;
  verdict : Workload.verdict;
}

type result = {
  setup_s : float;
  rss_mb : float;  (** VmHWM of the round process *)
  window_s : float;  (** measured wall time *)
  samples : sample array;
  closing : int * int;  (** (pairs checked, mismatches) after edge-writes *)
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Copy the template and force it to disk.  The set-up's first fsync
   commits the file system's journal, which would otherwise also write
   back whatever of the fresh copy is still dirty: a third of a second,
   or nothing, depending on when the kernel last flushed. *)
let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else begin
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)
  end;
  fsync_path dst

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some l -> (
          try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          with Scanf.Scan_failure _ | End_of_file -> go ())
      in
      go ())

type server = {
  db : Db.t;  (** the shared (writer) database *)
  srv : Server.t;
  client : Client.t;
}

(* Everything between "process starts" and "first statement can be
   served"; returns the running server and its cost in seconds. *)
let start ~dir =
  let t0 = Unix.gettimeofday () in
  let store, db, _ = Prep.ok_exn (Wal.open_dir ~fsync:true dir) in
  Prep.ok_exn (Db.create_graph_index db ~table:"friends" ~src:"src" ~dst:"dst");
  ignore (Db.warm_graph_indexes db);
  let srv = Server.create ~db ~store:(Some store) () in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.attach srv a;
  let client = Client.of_fd b in
  ignore (Client.hello client);
  ({ db; srv; client }, Unix.gettimeofday () -. t0)

(* Closed loop until [until]: replies are kept raw and checked after the
   window, so the client thread (which shares the runtime lock with the
   server) does as little as possible while the clock runs.  Returns
   (statement, sent, answered, reply lines) per statement. *)
let drive client next ~until =
  let out = ref [] in
  let last = ref (Unix.gettimeofday ()) in
  let alive = ref true in
  while !alive && !last < until do
    let (st : Workload.stmt) = next () in
    let t0 = Unix.gettimeofday () in
    let lines =
      try Client.request client st.Workload.sql
      with Client.Closed m ->
        alive := false;
        [ "BYE " ^ m ]
    in
    last := Unix.gettimeofday ();
    out := (st, t0, !last, lines) :: !out
  done;
  List.rev !out

let to_samples ~t0 stmts =
  List.map
    (fun ((st : Workload.stmt), t_send, t_done, lines) ->
      {
        cls = st.Workload.cls;
        at = t_done -. t0;
        ms = (t_done -. t_send) *. 1000.;
        verdict = Workload.check st lines;
      })
    stmts

(* After edge-writes: an exact check of 64 pool pairs against a native
   BFS over the final friends table. *)
let closing_check w (r : Prep.refs) s =
  match w with
  | Workload.Edge_writes ->
    let friends =
      Option.get (Storage.Catalog.find (Db.catalog s.db) "friends")
    in
    let native =
      Baselines.Native_bfs.of_table friends ~src_col:"src" ~dst_col:"dst"
    in
    let pairs = Array.sub r.Prep.pool 0 64 in
    let bad =
      Array.fold_left
        (fun acc (src, dst) ->
          let h =
            Option.value ~default:(-1)
              (Baselines.Native_bfs.distance native ~source:src ~target:dst)
          in
          let sql = Workload.q13 src dst in
          let lines = Client.request s.client sql in
          match Workload.check { Workload.cls = Q13; sql; expect = Hops h } lines with
          | Workload.Fine -> acc
          | _ -> acc + 1)
        0 pairs
    in
    (Array.length pairs, bad)
  | _ -> (0, 0)

(* Session knobs, checked like every other reply. *)
let configure w s =
  List.iter
    (fun sql ->
      let lines = Client.request s.client sql in
      if not (Client.is_ok lines) then failwith (sql ^ ": " ^ Client.terminal lines))
    (Workload.session_setup w)

let input_marshal path = In_channel.with_open_bin path Marshal.from_channel

let output_marshal path v =
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])

(* Child-process entry: restore the template into [work]/data-[tag] and
   time one set-up. *)
let restore_and_start ~work ~tag =
  let dir = Filename.concat work ("data-" ^ tag) in
  copy_tree (Filename.concat work "template") dir;
  start ~dir

(* Child-process entry: one set-up and nothing else; its time goes to
   [work]/setup-[tag].bin. *)
let setup_child ~work ~tag =
  let s, setup_s = restore_and_start ~work ~tag:("setup-" ^ tag) in
  output_marshal (Filename.concat work ("setup-" ^ tag ^ ".bin")) setup_s;
  Client.close s.client

(* Child-process entry: run round [round] and leave its result in
   [work]/round-[round].bin. *)
let child ~work ~w ~seed ~seconds ~round =
  let refs : Prep.refs = input_marshal (Filename.concat work "refs.bin") in
  let s, setup_s = restore_and_start ~work ~tag:(string_of_int round) in
  configure w s;
  let next = Workload.stream w refs ~seed ~round in
  let run_for secs = drive s.client next ~until:(Unix.gettimeofday () +. secs) in
  let warm = run_for warmup_s in
  let t0 = Unix.gettimeofday () in
  let timed = ref (run_for seconds) in
  let key_count () =
    List.length
      (List.filter (fun ((st : Workload.stmt), _, _, _) -> st.Workload.cls = Workload.key w) !timed)
  in
  while key_count () < min_key_samples && Unix.gettimeofday () -. t0 < 2. *. seconds do
    timed := !timed @ run_for 0.25
  done;
  let samples = Array.of_list (to_samples ~t0 warm @ to_samples ~t0 !timed) in
  let window_s = Array.fold_left (fun acc s -> Float.max acc s.at) 0. samples in
  let rss_mb = peak_rss_mb () in
  let closing = closing_check w refs s in
  output_marshal
    (Filename.concat work (Printf.sprintf "round-%d.bin" round))
    { setup_s; rss_mb; window_s; samples; closing };
  Client.close s.client
