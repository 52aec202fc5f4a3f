(* Every example binary must run to completion and produce its headline
   output — guarding the documented entry points against rot. The
   binaries are declared as dune deps of this test. *)

open Testjson.Support

let run name =
  let out = Filename.temp_file "sqlgraph_example" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "../examples/%s.exe > %s 2>&1" name (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)


let expectations =
  [
    ("quickstart", [ "a reaches d"; "latency_ms"; "GraphSelect" ]);
    ("ldbc_social", [ "Q13: hop distance"; "graphs built: 1"; "cached graph" ]);
    ("road_network", [ "fastest route"; "turn-by-turn"; "depot to every corner" ]);
    ("flight_routes", [ "cheapest AMS -> SYD"; "hub pairs" ]);
    ("ip_routing", [ "routing table from ams1"; "rerouted table" ]);
    ("ldbc_q14_all_paths", [ "all shortest paths"; "Q14 answer" ]);
  ]

let make_case (name, needles) =
  Alcotest.test_case name `Slow (fun () ->
      let code, out = run name in
      check tbool (name ^ " exits 0") true (code = 0);
      List.iter
        (fun needle ->
          check tbool
            (Printf.sprintf "%s mentions %S" name needle)
            true (contains out needle))
        needles)

let () =
  Alcotest.run "examples" [ ("runnable", List.map make_case expectations) ]
