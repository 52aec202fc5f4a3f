(* The bounded per-Db statement-fingerprint store behind
   sqlgraph_stat_statements (DESIGN.md §14): cumulative execution stats
   keyed by the 64-bit fingerprint of the normalized statement text.

   Bounded: at [bound] distinct fingerprints, recording a new one evicts
   the least-called entry (ties broken arbitrarily) and counts the
   eviction, so a workload of unbounded distinct shapes cannot grow the
   store without limit — the same contract as pg_stat_statements.

   The server shares one store across every session's private Db
   (Db.set_stat_store), so mutation goes through a mutex.  Latency is
   recorded as the exact same wall-clock delta Db.observe_stmt feeds the
   sqlgraph_statement_seconds histogram, which is what makes the store
   reconcile with the registry by construction. *)

type entry = {
  fingerprint : int64;
  query : string; (* normalized text *)
  mutable calls : int;
  mutable failures : int;
  mutable gov_aborts : int; (* Resource_error outcomes (governor, faults) *)
  mutable total_ms : float;
  mutable min_ms : float;
  mutable max_ms : float;
  mutable rows : int;
  counters : int array; (* summed per-statement counters, caller's order *)
}

type t = {
  mutable bound : int;
  tbl : (int64, entry) Hashtbl.t;
  mutable evicted : int;
  mu : Mutex.t;
}

let default_bound = 500

let create ?(bound = default_bound) () =
  { bound = max 1 bound; tbl = Hashtbl.create 64; evicted = 0; mu = Mutex.create () }

let bound t = t.bound

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let evict_coldest_locked t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with
        | Some v when v.calls <= e.calls -> acc
        | _ -> Some e)
      t.tbl None
  in
  match victim with
  | Some e ->
    Hashtbl.remove t.tbl e.fingerprint;
    t.evicted <- t.evicted + 1
  | None -> ()

let record t ~fingerprint ~query ~ms ~rows ~failed ~gov_abort ~counters =
  locked t (fun () ->
      let e =
        match Hashtbl.find_opt t.tbl fingerprint with
        | Some e -> e
        | None ->
          if Hashtbl.length t.tbl >= t.bound then evict_coldest_locked t;
          let e =
            {
              fingerprint;
              query;
              calls = 0;
              failures = 0;
              gov_aborts = 0;
              total_ms = 0.;
              min_ms = infinity;
              max_ms = 0.;
              rows = 0;
              counters = Array.make (Array.length counters) 0;
            }
          in
          Hashtbl.replace t.tbl fingerprint e;
          e
      in
      e.calls <- e.calls + 1;
      if failed then e.failures <- e.failures + 1;
      if gov_abort then e.gov_aborts <- e.gov_aborts + 1;
      e.total_ms <- e.total_ms +. ms;
      if ms < e.min_ms then e.min_ms <- ms;
      if ms > e.max_ms then e.max_ms <- ms;
      e.rows <- e.rows + rows;
      Array.iteri (fun i n -> e.counters.(i) <- e.counters.(i) + n) counters)

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.evicted <- 0)

let size t = locked t (fun () -> Hashtbl.length t.tbl)
let evicted t = locked t (fun () -> t.evicted)

let copy e = { e with counters = Array.copy e.counters }

(* A consistent copy, hottest (total_ms) first — the natural reading
   order and the order sqlgraph_stat_statements materializes in. *)
let entries t =
  locked t (fun () ->
      Hashtbl.fold (fun _ e acc -> copy e :: acc) t.tbl []
      |> List.sort (fun a b -> compare b.total_ms a.total_ms))

let find t fingerprint =
  locked t (fun () -> Option.map copy (Hashtbl.find_opt t.tbl fingerprint))

let total_ms t =
  locked t
    (fun () -> Hashtbl.fold (fun _ e acc -> acc +. e.total_ms) t.tbl 0.)
