(* The four traffic mixes, the SQL text each sends, and the check every
   reply goes through.  A workload's statement stream is a pure function
   of (seed, round), so every run of a seed sends the same statements. *)

type t = Point | Weighted | Batch | Edge_writes

let all = [ Point; Weighted; Batch; Edge_writes ]

let name = function
  | Point -> "point"
  | Weighted -> "weighted"
  | Batch -> "batch"
  | Edge_writes -> "edge-writes"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Statement classes.  [key] is the class whose latency a workload's
   p50/p95 report: the statement the workload exists to measure. *)
type cls = Q13 | Q14 | Batch_q | Write

let cls_name = function
  | Q13 -> "q13"
  | Q14 -> "q14"
  | Batch_q -> "batch"
  | Write -> "write"

let key = function
  | Point -> Q13
  | Weighted -> Q14
  | Batch -> Batch_q
  | Edge_writes -> Write

(* Session knobs sent once per connection before any timed statement. *)
let session_setup = function Batch -> [ "SET parallelism = 2" ] | _ -> []

(* [edge-writes] repeats a burst of durable INSERTs followed by Q13
   reads.  Each burst invalidates the cached graph, so the first read
   after it rebuilds dictionary, encoding and CSR.  A rebuild costs
   ~100 ms, which caps bursts at ~8/s; four writes per burst give the
   write percentiles enough samples. *)
let writes_per_cycle = 4
let reads_per_cycle = 9

(* What a correct reply holds.  Costs are -1 for "no row" (unreachable). *)
type expect =
  | Hops of int  (** Q13: exact hop count *)
  | Hops_at_most of int
      (** Q13 during edge-writes: edges are only added, so never more hops
          than on the initial graph (-1: any answer) *)
  | Cost of int  (** Q14: the cost cell of the single row *)
  | Rows of (int * int * int) list  (** batch: sorted (s, d, hops) of reachable pairs *)
  | Inserted

type stmt = { cls : cls; sql : string; expect : expect }

let q13 s d =
  Printf.sprintf
    "SELECT CHEAPEST SUM(1) WHERE %d REACHES %d OVER friends EDGE (src, dst)" s d

let q14 s d =
  Printf.sprintf
    "SELECT CHEAPEST SUM(e: CAST(weight * 100 AS INTEGER)) AS (cost, path) \
     WHERE %d REACHES %d OVER friends e EDGE (src, dst)"
    s d

let batch_sql b =
  Printf.sprintf
    "SELECT s, d, CHEAPEST SUM(1) AS c FROM pairs WHERE b = %d AND s REACHES d \
     OVER friends EDGE (src, dst)"
    b

let insert s d =
  Printf.sprintf "INSERT INTO friends VALUES (%d, %d, '2012-06-01', 1.5)" s d

let batch_rows (r : Prep.refs) b =
  Array.to_list
    (Array.mapi
       (fun i (s, d) -> (s, d, r.Prep.batch_hops.(b).(i)))
       r.Prep.batches.(b))
  |> List.filter (fun (_, _, h) -> h >= 0)
  |> List.sort compare

(* The statement stream of one round's connection. *)
let stream w (r : Prep.refs) ~seed ~round =
  let st = Random.State.make [| seed; round; 7 |] in
  let pick a = Random.State.int st (Array.length a) in
  let point () =
    let i = pick r.Prep.pool in
    let s, d = r.Prep.pool.(i) in
    { cls = Q13; sql = q13 s d; expect = Hops r.Prep.hops.(i) }
  in
  let k = ref 0 in
  fun () ->
    incr k;
    match w with
    | Point -> point ()
    | Weighted ->
      let i = pick r.Prep.wpool in
      let s, d = r.Prep.wpool.(i) in
      { cls = Q14; sql = q14 s d; expect = Cost r.Prep.wcost.(i) }
    | Batch ->
      let b = pick r.Prep.batches in
      { cls = Batch_q; sql = batch_sql b; expect = Rows (batch_rows r b) }
    | Edge_writes ->
      if (!k - 1) mod (writes_per_cycle + reads_per_cycle) < writes_per_cycle
      then begin
        let s = r.Prep.persons.(pick r.Prep.persons) in
        let d = Prep.other_person st r.Prep.persons s in
        { cls = Write; sql = insert s d; expect = Inserted }
      end
      else
        let p = point () in
        let h = match p.expect with Hops h -> h | _ -> -1 in
        { p with expect = Hops_at_most h }

(* --- reply checking ------------------------------------------------ *)

type verdict = Fine | Err of string | Wrong of string

let row_cells line =
  if String.length line >= 4 && String.sub line 0 4 = "ROW " then
    Some
      (List.map Sqlgraph_server.Protocol.unescape
         (String.split_on_char '\t' (String.sub line 4 (String.length line - 4))))
  else None

let check st lines =
  let terminal = Sqlgraph_server.Client.terminal lines in
  if not (String.length terminal >= 2 && String.sub terminal 0 2 = "OK") then
    Err (Printf.sprintf "%s -> %s" st.sql (if terminal = "" then "no reply" else terminal))
  else
    let rows = List.filter_map row_cells lines in
    let int_cell c = int_of_string_opt (String.trim c) in
    let got =
      match rows with
      | [] -> Some (-1)
      | [ c :: _ ] -> int_cell c
      | _ -> None
    in
    let wrong fmt = Printf.ksprintf (fun m -> Wrong (st.sql ^ " -> " ^ m)) fmt in
    match st.expect with
    | Hops h | Cost h -> (
      match got with
      | Some g when g = h -> Fine
      | _ -> wrong "expected %d, got %s" h (String.concat " | " lines))
    | Hops_at_most h -> (
      match got with
      | Some g when h < 0 || (g >= 0 && g <= h) -> Fine
      | _ -> wrong "expected at most %d hops, got %s" h (String.concat " | " lines))
    | Rows expected ->
      let parse = function
        | [ s; d; c ] -> (
          match (int_cell s, int_cell d, int_cell c) with
          | Some s, Some d, Some c -> Some (s, d, c)
          | _ -> None)
        | _ -> None
      in
      let parsed = List.map parse rows in
      if List.mem None parsed then wrong "malformed batch row"
      else
        let got = List.sort compare (List.filter_map Fun.id parsed) in
        if got = expected then Fine
        else
          wrong "batch: %d rows, expected %d rows or other hop counts"
            (List.length got) (List.length expected)
    | Inserted ->
      if String.length terminal >= 11 && String.sub terminal 0 11 = "OK INSERT 1"
      then Fine
      else wrong "expected OK INSERT 1, got %s" terminal
