(* Unit and property tests for vis_util: bitsets, the priority queue,
   topological sorting, table rendering and numeric helpers. *)

module Bitset = Vis_util.Bitset
module Pqueue = Vis_util.Pqueue
module Toposort = Vis_util.Toposort
module Num = Vis_util.Num
module Json = Vis_util.Json

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Bitset unit tests. *)

let test_bitset_basics () =
  let s = Bitset.of_list [ 0; 2; 5 ] in
  check "mem 0" true (Bitset.mem 0 s);
  check "mem 1" false (Bitset.mem 1 s);
  check "mem 5" true (Bitset.mem 5 s);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 2; 5 ] (Bitset.elements s);
  check "empty is empty" true (Bitset.is_empty Bitset.empty);
  check "nonempty" false (Bitset.is_empty s);
  check_int "choose" 0 (Bitset.choose s);
  check_int "choose tail" 2 (Bitset.choose (Bitset.remove 0 s))

let test_bitset_algebra () =
  let a = Bitset.of_list [ 0; 1; 2 ] and b = Bitset.of_list [ 2; 3 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ]
    (Bitset.elements (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 2 ] (Bitset.elements (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 0; 1 ] (Bitset.elements (Bitset.diff a b));
  check "subset" true (Bitset.subset (Bitset.of_list [ 0; 1 ]) a);
  check "not subset" false (Bitset.subset b a);
  check "proper subset" true (Bitset.proper_subset (Bitset.of_list [ 0 ]) a);
  check "not proper (equal)" false (Bitset.proper_subset a a);
  check "disjoint" true (Bitset.disjoint (Bitset.of_list [ 0 ]) (Bitset.of_list [ 1 ]));
  check "not disjoint" false (Bitset.disjoint a b)

let test_bitset_full_subsets () =
  check_int "full 3 cardinal" 3 (Bitset.cardinal (Bitset.full 3));
  check_int "full 0" 0 (Bitset.cardinal (Bitset.full 0));
  let subs = Bitset.subsets (Bitset.full 3) in
  check_int "8 subsets of a 3-set" 8 (List.length subs);
  check_int "7 nonempty" 7 (List.length (Bitset.nonempty_subsets (Bitset.full 3)));
  check_int "6 proper nonempty" 6
    (List.length (Bitset.proper_nonempty_subsets (Bitset.full 3)));
  (* Subsets come out in increasing encoding, so subset-before-superset. *)
  let ints = List.map Bitset.to_int subs in
  check "sorted" true (List.sort compare ints = ints)

let test_bitset_bounds () =
  Alcotest.check_raises "singleton 62" (Invalid_argument "Bitset: element 62 out of range")
    (fun () -> ignore (Bitset.singleton 62));
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: element -1 out of range")
    (fun () -> ignore (Bitset.add (-1) Bitset.empty));
  Alcotest.check_raises "choose empty" Not_found (fun () ->
      ignore (Bitset.choose Bitset.empty))

(* Bitset properties. *)

let set_gen =
  QCheck2.Gen.(map Bitset.of_list (list_size (int_bound 10) (int_bound 20)))

let prop_union_comm =
  QCheck2.Test.make ~name:"bitset: union commutes" ~count:200
    QCheck2.Gen.(pair set_gen set_gen)
    (fun (a, b) -> Bitset.equal (Bitset.union a b) (Bitset.union b a))

let prop_diff_inter =
  QCheck2.Test.make ~name:"bitset: diff and inter partition" ~count:200
    QCheck2.Gen.(pair set_gen set_gen)
    (fun (a, b) ->
      let d = Bitset.diff a b and i = Bitset.inter a b in
      Bitset.disjoint d i && Bitset.equal (Bitset.union d i) a)

let prop_subsets_count =
  QCheck2.Test.make ~name:"bitset: 2^n subsets" ~count:50 set_gen (fun s ->
      List.length (Bitset.subsets s) = 1 lsl Bitset.cardinal s)

let prop_fold_matches_elements =
  QCheck2.Test.make ~name:"bitset: fold visits elements in order" ~count:200
    set_gen (fun s ->
      List.rev (Bitset.fold (fun i acc -> i :: acc) s []) = Bitset.elements s)

(* ------------------------------------------------------------------ *)
(* Priority queue. *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun x -> Pqueue.push q (float_of_int x) x) [ 5; 1; 4; 1; 3; 9; 2 ];
  check_int "length" 7 (Pqueue.length q);
  let rec drain acc =
    match Pqueue.pop_min q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain []);
  check "empty after drain" true (Pqueue.is_empty q)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  check "peek empty" true (Pqueue.peek_min q = None);
  Pqueue.push q 2.0 "b";
  Pqueue.push q 1.0 "a";
  (match Pqueue.peek_min q with
  | Some (p, v) ->
      Alcotest.(check (float 0.)) "peek prio" 1.0 p;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected an entry");
  check_int "peek does not remove" 2 (Pqueue.length q);
  Pqueue.clear q;
  check "cleared" true (Pqueue.is_empty q)

let test_pqueue_tiebreak () =
  let q = Pqueue.create () in
  Pqueue.push ~tie:3 q 1.0 "c";
  Pqueue.push ~tie:1 q 1.0 "a";
  Pqueue.push ~tie:2 q 1.0 "b";
  Pqueue.push ~tie:9 q 0.5 "first";
  let rec drain acc =
    match Pqueue.pop_min q with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "priority then tie"
    [ "first"; "a"; "b"; "c" ] (drain [])

let prop_pqueue_sorts =
  QCheck2.Test.make ~name:"pqueue: drains in priority order" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) (float_bound_inclusive 1000.))
    (fun floats ->
      let q = Pqueue.create () in
      List.iter (fun f -> Pqueue.push q f f) floats;
      let rec drain acc =
        match Pqueue.pop_min q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare floats)

(* ------------------------------------------------------------------ *)
(* Topological sort. *)

let test_toposort_chain () =
  Alcotest.(check (list int)) "chain" [ 0; 1; 2; 3 ]
    (Toposort.sort ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ])

let test_toposort_respects_edges () =
  let order = Toposort.sort ~n:5 ~edges:[ (3, 1); (4, 0); (1, 0) ] in
  let pos x = Option.get (List.find_index (Int.equal x) order) in
  check "3 before 1" true (pos 3 < pos 1);
  check "4 before 0" true (pos 4 < pos 0);
  check "1 before 0" true (pos 1 < pos 0)

let test_toposort_cycle () =
  Alcotest.check_raises "cycle" Toposort.Cycle (fun () ->
      ignore (Toposort.sort ~n:2 ~edges:[ (0, 1); (1, 0) ]))

let test_toposort_deterministic () =
  Alcotest.(check (list int)) "smallest-first on no edges" [ 0; 1; 2 ]
    (Toposort.sort ~n:3 ~edges:[])

(* ------------------------------------------------------------------ *)
(* Table rendering and numeric helpers. *)

let test_tableprint () =
  let t = Vis_util.Tableprint.create [ "a"; "bee" ] in
  Vis_util.Tableprint.add_row t [ "1"; "2" ];
  Vis_util.Tableprint.add_row t [ "333" ];
  let out = Vis_util.Tableprint.render t in
  check "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  let lines = String.split_on_char '\n' out in
  check_int "4 lines + trailing" 5 (List.length lines);
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Tableprint.add_row: too many cells") (fun () ->
      Vis_util.Tableprint.add_row t [ "1"; "2"; "3" ])

let test_fmt_compact () =
  Alcotest.(check string) "grouping" "12,345" (Vis_util.Tableprint.fmt_compact 12345.);
  Alcotest.(check string) "small" "999" (Vis_util.Tableprint.fmt_compact 999.);
  Alcotest.(check string) "fraction" "1.50" (Vis_util.Tableprint.fmt_compact 1.5)

let test_of_json () =
  let module J = Vis_util.Json in
  let doc =
    J.Obj
      [
        ("name", J.String "run");
        ("ratio", J.Float 0.123456);
        ("cost", J.Float 1234.5678);
        ("states", J.Float 622080.);
        ("missing", J.Null);
        ("work", J.List [ J.Int 3; J.Int 4 ]);
        ("empty", J.Obj []);
        ( "rows",
          J.List
            [
              J.Obj [ ("k", J.String "a"); ("n", J.Int 1) ];
              J.Obj
                [
                  ("k", J.String "b");
                  ("extra", J.Bool true);
                  ("sub", J.Obj [ ("x", J.Int 9) ]);
                ];
            ] );
      ]
  in
  let expected =
    String.concat "\n"
      [
        "report";
        "name     value";
        "----------------";
        "name     run";
        "ratio    0.1235";
        "cost     1234.57";
        "states   622080";
        "missing  -";
        "work     3, 4";
        "";
        "report.rows";
        "k  n  extra";
        "-----------";
        "a  1";
        "b     true";
        "";
        "report.rows[1].sub";
        "name  value";
        "-----------";
        "x     9";
        "";
      ]
  in
  Alcotest.(check string) "tables" expected
    (Vis_util.Tableprint.of_json ~title:"report" doc);
  Alcotest.(check string) "empty object renders nothing" ""
    (Vis_util.Tableprint.of_json (J.Obj []));
  Alcotest.(check string) "UTF-8 cells align by code point"
    "a   b\n-----\n\xce\x94R  1\n"
    (Vis_util.Tableprint.of_json
       (J.List [ J.Obj [ ("a", J.String "\xce\x94R"); ("b", J.Int 1) ] ]))

let test_num () =
  check_int "ceil_div exact" 3 (Num.ceil_div 9 3);
  check_int "ceil_div round up" 4 (Num.ceil_div 10 3);
  Alcotest.(check (float 0.)) "fceil positive" 3. (Num.fceil 2.1);
  Alcotest.(check (float 0.)) "fceil negative clamps" 0. (Num.fceil (-2.1));
  check "approx_equal" true (Num.approx_equal 1.0 (1.0 +. 1e-12));
  check "not approx_equal" false (Num.approx_equal 1.0 1.1)

(* ------------------------------------------------------------------ *)
(* Json: \uXXXX escapes decode to UTF-8 and round-trip through the
   printer (which passes non-ASCII bytes through verbatim). *)

let test_json_unicode_escapes () =
  let str s =
    match Json.of_string s with
    | Json.String v -> v
    | _ -> Alcotest.fail "expected a string"
  in
  (* ASCII escape decodes to the plain character. *)
  check_string "ascii" "A" (str {|"A"|});
  (* 2-byte UTF-8: U+00E9 (e-acute). *)
  check_string "latin-1 supplement" "\xc3\xa9" (str {|"\u00e9"|});
  (* 3-byte UTF-8: U+20AC (euro sign). *)
  check_string "bmp" "\xe2\x82\xac" (str {|"\u20ac"|});
  (* Surrogate pair: U+1D11E (musical G clef). *)
  check_string "supplementary plane" "\xf0\x9d\x84\x9e"
    (str {|"\ud834\udd1e"|});
  (* Decoded text survives a print/parse round trip (the printer passes
     the UTF-8 bytes through verbatim). *)
  let v = Json.Obj [ ("s", Json.String (str {|"caf\u00e9 \ud834\udd1e"|})) ] in
  check_string "round trip" (Json.to_string v)
    (Json.to_string (Json.of_string (Json.to_string v)));
  (* Unpaired surrogates are rejected, not silently mangled. *)
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check "lone high surrogate" true (rejects {|"\ud834"|});
  check "lone low surrogate" true (rejects {|"\udd1e"|});
  check "high surrogate + ascii escape" true (rejects {|"\ud834A"|})

(* Adversarial inputs: deep nesting and non-finite numeric literals must
   raise the typed [Parse_error] — never a stack overflow or a silent
   infinity that the printer would then round-trip as null. *)

let test_json_hardening () =
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  (* Nesting right at the limit parses. *)
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.of_string (nested Json.max_depth) with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "expected a list");
  (* One level past the limit is a typed error. *)
  check "lists beyond max_depth" true (rejects (nested (Json.max_depth + 1)));
  (* Far past the limit must not blow the stack either. *)
  check "pathological list nesting" true (rejects (String.make 100_000 '['));
  let objs d =
    String.concat "" (List.init d (fun _ -> {|{"k":|}))
    ^ "0" ^ String.make d '}'
  in
  check "objects beyond max_depth" true (rejects (objs (Json.max_depth + 1)));
  (* Mixed-container nesting counts every level. *)
  check "mixed nesting" true
    (rejects (String.concat "" (List.init 300 (fun _ -> {|[{"k":|}))));
  (* Overflowing exponents would parse to infinity; reject them. *)
  check "positive overflow" true (rejects "1e999");
  check "negative overflow" true (rejects "-1e999");
  check "overflow in a field" true (rejects {|{"x": 1e999}|});
  (* Large-but-finite literals still parse. *)
  (match Json.of_string "1e308" with
  | Json.Float x -> check "finite float" true (Float.is_finite x)
  | _ -> Alcotest.fail "expected a float");
  (* The bare words nan/inf are not in the JSON grammar at all. *)
  check "nan literal" true (rejects "nan");
  check "inf literal" true (rejects "inf")

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "full and subsets" `Quick test_bitset_full_subsets;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        ]
        @ qt
            [
              prop_union_comm;
              prop_diff_inter;
              prop_subsets_count;
              prop_fold_matches_elements;
            ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          Alcotest.test_case "tie-break" `Quick test_pqueue_tiebreak;
        ]
        @ qt [ prop_pqueue_sorts ] );
      ( "toposort",
        [
          Alcotest.test_case "chain" `Quick test_toposort_chain;
          Alcotest.test_case "edges respected" `Quick test_toposort_respects_edges;
          Alcotest.test_case "cycle detected" `Quick test_toposort_cycle;
          Alcotest.test_case "deterministic" `Quick test_toposort_deterministic;
        ] );
      ( "tableprint and num",
        [
          Alcotest.test_case "render" `Quick test_tableprint;
          Alcotest.test_case "compact numbers" `Quick test_fmt_compact;
          Alcotest.test_case "json tables" `Quick test_of_json;
          Alcotest.test_case "numeric helpers" `Quick test_num;
        ] );
      ( "json",
        [
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "adversarial inputs" `Quick test_json_hardening;
        ] );
    ]
