type counters = {
  mutable searches : int;
  mutable settled : int;
  mutable peak_frontier : int;
  mutable edges_scanned : int;
  mutable waves : int;
  mutable dir_switches : int;
}

(* Scratch for the batched / direction-optimizing kernels. All arrays are
   vertex-indexed except the rec_* ones, which form a growable pool of
   per-discovery records (mask of lanes discovered together, parent
   vertex, forward CSR slot, BFS level) chained per vertex through
   [rec_head]/[rec_next]. Unlike the epoch-stamped scalar state, the mask
   arrays are reset by explicit fills at the start of each wave — O(V)
   per <=63 sources, noise next to the traversal itself. *)
type batch = {
  seen : int array;  (* lanes that have reached v at any level *)
  cur_mask : int array;  (* lanes whose frontier contains v *)
  next_mask : int array;  (* lanes discovering v at the level in flight *)
  tgt_mask : int array;  (* lanes for which v is a pending target *)
  cur_vs : int array;  (* current frontier, ascending vertex id *)
  next_vs : int array;
  rec_head : int array;  (* first discovery record per vertex, -1 = none *)
  mutable rec_mask : int array;
  mutable rec_parent : int array;
  mutable rec_slot : int array;
  mutable rec_level : int array;
  mutable rec_next : int array;
  mutable rec_len : int;
}

type t = {
  stamp : int array;
  target_stamp : int array;
  dist_int : int array;
  dist_float : float array;
  parent_vertex : int array;
  parent_slot : int array;
  mutable epoch : int;
  counters : counters;
  vertex_count : int;
  mutable batch : batch option;
  mutable radix : Radix_heap.t option;
}

let fresh_counters () =
  {
    searches = 0;
    settled = 0;
    peak_frontier = 0;
    edges_scanned = 0;
    waves = 0;
    dir_switches = 0;
  }

let create vertex_count =
  let n = max vertex_count 1 in
  {
    stamp = Array.make n 0;
    target_stamp = Array.make n 0;
    dist_int = Array.make n 0;
    dist_float = Array.make n 0.;
    parent_vertex = Array.make n (-1);
    parent_slot = Array.make n (-1);
    epoch = 0;
    counters = fresh_counters ();
    vertex_count = n;
    batch = None;
    radix = None;
  }

let vertex_count t = t.vertex_count

(* The batch scratch is allocated on first use so Dijkstra-only workloads
   never pay for it, then reused for every subsequent wave. *)
let batch_state t =
  match t.batch with
  | Some b -> b
  | None ->
    let n = t.vertex_count in
    let b =
      {
        seen = Array.make n 0;
        cur_mask = Array.make n 0;
        next_mask = Array.make n 0;
        tgt_mask = Array.make n 0;
        cur_vs = Array.make n 0;
        next_vs = Array.make n 0;
        rec_head = Array.make n (-1);
        rec_mask = Array.make 64 0;
        rec_parent = Array.make 64 0;
        rec_slot = Array.make 64 0;
        rec_level = Array.make 64 0;
        rec_next = Array.make 64 (-1);
        rec_len = 0;
      }
    in
    t.batch <- Some b;
    b

(* Likewise the radix heap: its bucket buffers grow to the largest
   frontier once, and every later Dijkstra on this workspace reuses them. *)
let radix_heap t =
  match t.radix with
  | Some h ->
    Radix_heap.clear h;
    h
  | None ->
    let h = Radix_heap.create () in
    t.radix <- Some h;
    h

let reset_batch b =
  let n = Array.length b.seen in
  Array.fill b.seen 0 n 0;
  Array.fill b.cur_mask 0 n 0;
  Array.fill b.next_mask 0 n 0;
  Array.fill b.tgt_mask 0 n 0;
  Array.fill b.rec_head 0 n (-1);
  b.rec_len <- 0

let add_record b ~v ~mask ~parent ~slot ~level =
  let k = b.rec_len in
  let cap = Array.length b.rec_mask in
  if k = cap then begin
    let grow a fill =
      let a' = Array.make (2 * cap) fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    b.rec_mask <- grow b.rec_mask 0;
    b.rec_parent <- grow b.rec_parent 0;
    b.rec_slot <- grow b.rec_slot 0;
    b.rec_level <- grow b.rec_level 0;
    b.rec_next <- grow b.rec_next (-1)
  end;
  b.rec_mask.(k) <- mask;
  b.rec_parent.(k) <- parent;
  b.rec_slot.(k) <- slot;
  b.rec_level.(k) <- level;
  b.rec_next.(k) <- b.rec_head.(v);
  b.rec_head.(v) <- k;
  b.rec_len <- k + 1

(* The record of [v] covering [lane], or -1. A lane discovers a vertex at
   most once, so the first match is the only one. *)
let find_record b ~v ~lane =
  let bit = 1 lsl lane in
  let rec go k =
    if k < 0 then -1
    else if b.rec_mask.(k) land bit <> 0 then k
    else go b.rec_next.(k)
  in
  go b.rec_head.(v)

(* In-place ascending sort of a.(0 .. n-1), allocation-free: frontier
   vertex lists must be re-sorted after every top-down level so that the
   next level's first-discovery parents stay canonical (minimal forward
   slot). Median-of-three quicksort with insertion sort for short runs;
   elements are distinct vertex ids. *)
let sort_prefix (a : int array) n =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec go lo hi =
    if lo < hi then
      if hi - lo < 12 then
        for i = lo + 1 to hi do
          let x = a.(i) in
          let j = ref (i - 1) in
          while !j >= lo && a.(!j) > x do
            a.(!j + 1) <- a.(!j);
            decr j
          done;
          a.(!j + 1) <- x
        done
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if a.(mid) < a.(lo) then swap mid lo;
        if a.(hi) < a.(lo) then swap hi lo;
        if a.(hi) < a.(mid) then swap hi mid;
        let p = a.(mid) in
        let i = ref lo and j = ref hi in
        while !i <= !j do
          while a.(!i) < p do
            incr i
          done;
          while a.(!j) > p do
            decr j
          done;
          if !i <= !j then begin
            swap !i !j;
            incr i;
            decr j
          end
        done;
        go lo !j;
        go !i hi
      end
  in
  go 0 (n - 1)

let next_epoch t =
  t.epoch <- t.epoch + 1;
  t.counters.searches <- t.counters.searches + 1

let visited t v = t.stamp.(v) = t.epoch
let mark_visited t v = t.stamp.(v) <- t.epoch
let mark_target t v = t.target_stamp.(v) <- t.epoch
let is_pending_target t v = t.target_stamp.(v) = t.epoch
let clear_target t v = t.target_stamp.(v) <- 0

let counters t = t.counters

let snapshot_counters t =
  {
    searches = t.counters.searches;
    settled = t.counters.settled;
    peak_frontier = t.counters.peak_frontier;
    edges_scanned = t.counters.edges_scanned;
    waves = t.counters.waves;
    dir_switches = t.counters.dir_switches;
  }

let note_settled t = t.counters.settled <- t.counters.settled + 1

let note_frontier t n =
  if n > t.counters.peak_frontier then t.counters.peak_frontier <- n

let note_edge t = t.counters.edges_scanned <- t.counters.edges_scanned + 1

let note_wave t = t.counters.waves <- t.counters.waves + 1

let note_dir_switch t =
  t.counters.dir_switches <- t.counters.dir_switches + 1

let absorb_counters ~into src =
  let c = into.counters in
  c.searches <- c.searches + src.counters.searches;
  c.settled <- c.settled + src.counters.settled;
  c.peak_frontier <- max c.peak_frontier src.counters.peak_frontier;
  c.edges_scanned <- c.edges_scanned + src.counters.edges_scanned;
  c.waves <- c.waves + src.counters.waves;
  c.dir_switches <- c.dir_switches + src.counters.dir_switches

let reset_counters t =
  let c = t.counters in
  c.searches <- 0;
  c.settled <- 0;
  c.peak_frontier <- 0;
  c.edges_scanned <- 0;
  c.waves <- 0;
  c.dir_switches <- 0
