(** Calendar dates as days since the Unix epoch (1970-01-01).

    A tiny proleptic-Gregorian implementation: enough to parse, print,
    compare and order the [creationDate] attributes used by the paper's
    examples and the LDBC-style generator. *)

type t = int
(** Days since 1970-01-01; may be negative for earlier dates. *)

(** [of_ymd ~year ~month ~day] converts a calendar date to epoch days.
    Raises [Invalid_argument] if the date is not a valid calendar date. *)
val of_ymd : year:int -> month:int -> day:int -> t

(** [to_ymd t] is the [(year, month, day)] triple for epoch day [t]. *)
val to_ymd : t -> int * int * int

(** [of_string s] parses ["YYYY-MM-DD"]: the strict form directly, and
    the looser ones [Scanf "%d-%d-%d"] accepts (["2011-5-3"], signed or
    long years). [None] for anything else or an impossible date. *)
val of_string : string -> t option

(** [to_string t] formats as ["YYYY-MM-DD"]. *)
val to_string : t -> string

val is_leap_year : int -> bool
val days_in_month : year:int -> month:int -> int
val pp : Format.formatter -> t -> unit
