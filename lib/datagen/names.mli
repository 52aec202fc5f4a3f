(** Name pools for synthetic persons (flavoured after the LDBC SNB sample
    data the paper's appendix uses: Mahinda Perera, Carmen Lepland,
    Chen Wang, ...). *)

(** [pick rng] — a random (first, last) pair. *)
val pick : Splitmix.t -> string * string
