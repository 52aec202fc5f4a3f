type t = int

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month ~year ~month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year year then 29 else 28
  | _ -> invalid_arg "Date.days_in_month: month out of range"

(* Civil-date <-> day-count conversion after Howard Hinnant's algorithms:
   era-based arithmetic, exact over the whole proleptic Gregorian range. *)
let of_ymd ~year ~month ~day =
  if month < 1 || month > 12 then invalid_arg "Date.of_ymd: bad month";
  if day < 1 || day > days_in_month ~year ~month then
    invalid_arg "Date.of_ymd: bad day";
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (month + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + day - 1 in
  let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy in
  era * 146097 + doe - 719468

let to_ymd t =
  let z = t + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - (365 * yoe + yoe / 4 - yoe / 100) in
  let mp = (5 * doy + 2) / 153 in
  let day = doy - (153 * mp + 2) / 5 + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  (year, month, day)

let is_digit s i = s.[i] >= '0' && s.[i] <= '9'
let digit s i = Char.code s.[i] - 48

(* [YYYY-MM-DD] exactly: four, two and two digits *)
let is_strict s =
  String.length s = 10
  && s.[4] = '-'
  && s.[7] = '-'
  && is_digit s 0 && is_digit s 1 && is_digit s 2 && is_digit s 3
  && is_digit s 5 && is_digit s 6 && is_digit s 8 && is_digit s 9

(* The strict form is read directly; [Scanf] keeps every other spelling
   it accepts (signs, shorter or longer fields). *)
let of_string s =
  match
    if is_strict s then
      of_ymd
        ~year:
          ((1000 * digit s 0) + (100 * digit s 1) + (10 * digit s 2)
          + digit s 3)
        ~month:((10 * digit s 5) + digit s 6)
        ~day:((10 * digit s 8) + digit s 9)
    else
      Scanf.sscanf s "%d-%d-%d%!" (fun year month day ->
          of_ymd ~year ~month ~day)
  with
  | d -> Some d
  | exception (Scanf.Scan_failure _ | Failure _ | Invalid_argument _
              | End_of_file) ->
    None

let to_string t =
  let year, month, day = to_ymd t in
  Printf.sprintf "%04d-%02d-%02d" year month day

let pp ppf t = Format.pp_print_string ppf (to_string t)
