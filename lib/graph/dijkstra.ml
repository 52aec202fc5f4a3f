type heap_kind = Radix | Binary

(* Vertices are *discovered* (tentative distance known, stamped visited)
   then *settled* (popped with an up-to-date distance, final). Pending
   targets are cleared only on settling. *)

let setup_targets (ws : Workspace.t) targets =
  let remaining = ref 0 in
  Array.iter
    (fun v ->
      if not (Workspace.is_pending_target ws v) then begin
        Workspace.mark_target ws v;
        incr remaining
      end)
    targets;
  remaining

let run_int ?(check = Cancel.none) (ws : Workspace.t) (csr : Csr.t) ~weights
    ~source ~targets ~heap =
  Workspace.next_epoch ws;
  let remaining = setup_targets ws targets in
  let early_exit = Array.length targets > 0 in
  (* [extract] returns the payload and leaves its priority in [popped]:
     with the workspace's reused radix heap the settle loop allocates
     nothing *)
  let popped = ref 0 in
  let insert, extract, heap_empty, heap_size =
    match heap with
    | Radix ->
      let h = Workspace.radix_heap ws in
      ( (fun p v -> Radix_heap.insert h ~priority:p ~payload:v),
        (fun () ->
          let v = Radix_heap.extract_min h in
          popped := Radix_heap.floor h;
          v),
        (fun () -> Radix_heap.is_empty h),
        fun () -> Radix_heap.size h )
    | Binary ->
      let h = Binary_heap.create () in
      ( (fun p v -> Binary_heap.insert h ~priority:(float_of_int p) ~payload:v),
        (fun () ->
          let p, v = Binary_heap.extract_min h in
          popped := int_of_float p;
          v),
        (fun () -> Binary_heap.is_empty h),
        fun () -> Binary_heap.size h )
  in
  let tk = Cancel.ticker check ~site:"dijkstra" in
  Workspace.mark_visited ws source;
  ws.dist_int.(source) <- 0;
  ws.parent_vertex.(source) <- -1;
  ws.parent_slot.(source) <- -1;
  insert 0 source;
  let finished = ref false in
  while (not !finished) && not (heap_empty ()) do
    let u = extract () in
    let d = !popped in
    Cancel.tick tk ~frontier:(heap_size ());
    (* Lazy deletion: skip entries made stale by a later relaxation. *)
    if d = ws.dist_int.(u) && Workspace.visited ws u then begin
      Workspace.note_settled ws;
      if Workspace.is_pending_target ws u then begin
        Workspace.clear_target ws u;
        decr remaining;
        if early_exit && !remaining = 0 then finished := true
      end;
      if not !finished then
        (* a plain slot loop: no relaxation closure per settled vertex *)
        for slot = csr.Csr.offsets.(u) to csr.Csr.offsets.(u + 1) - 1 do
          let target = Ivec.get csr.Csr.targets slot in
          Workspace.note_edge ws;
          let cand = d + weights.(slot) in
          if
            (not (Workspace.visited ws target))
            || cand < ws.dist_int.(target)
          then begin
            Workspace.mark_visited ws target;
            ws.dist_int.(target) <- cand;
            ws.parent_vertex.(target) <- u;
            ws.parent_slot.(target) <- slot;
            insert cand target;
            Workspace.note_frontier ws (heap_size ())
          end
        done
    end
  done;
  Cancel.flush tk

let run_float ?(check = Cancel.none) (ws : Workspace.t) (csr : Csr.t) ~weights
    ~source ~targets =
  Workspace.next_epoch ws;
  let remaining = setup_targets ws targets in
  let early_exit = Array.length targets > 0 in
  let h = Binary_heap.create () in
  let tk = Cancel.ticker check ~site:"dijkstra" in
  Workspace.mark_visited ws source;
  ws.dist_float.(source) <- 0.;
  ws.parent_vertex.(source) <- -1;
  ws.parent_slot.(source) <- -1;
  Binary_heap.insert h ~priority:0. ~payload:source;
  let finished = ref false in
  while (not !finished) && not (Binary_heap.is_empty h) do
    let d, u = Binary_heap.extract_min h in
    Cancel.tick tk ~frontier:(Binary_heap.size h);
    if d = ws.dist_float.(u) && Workspace.visited ws u then begin
      Workspace.note_settled ws;
      if Workspace.is_pending_target ws u then begin
        Workspace.clear_target ws u;
        decr remaining;
        if early_exit && !remaining = 0 then finished := true
      end;
      if not !finished then
        Csr.iter_out csr u (fun ~slot ~target ->
            Workspace.note_edge ws;
            let cand = d +. weights.(slot) in
            if
              (not (Workspace.visited ws target))
              || cand < ws.dist_float.(target)
            then begin
              Workspace.mark_visited ws target;
              ws.dist_float.(target) <- cand;
              ws.parent_vertex.(target) <- u;
              ws.parent_slot.(target) <- slot;
              Binary_heap.insert h ~priority:cand ~payload:target;
              Workspace.note_frontier ws (Binary_heap.size h)
            end)
    end
  done;
  Cancel.flush tk
