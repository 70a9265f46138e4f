(* Tests for vis_costmodel: the yao/Y_WAP estimators, elements, configurations,
   the Appendix-A cost engine (golden values on Schema 1 plus structural
   properties like monotonicity in the configuration), and the interned
   keys of a problem's shared memo cache. *)

module Bitset = Vis_util.Bitset
module Schema = Vis_catalog.Schema
module Derived = Vis_catalog.Derived
module Yao = Vis_costmodel.Yao
module Element = Vis_costmodel.Element
module Config = Vis_costmodel.Config
module Cost = Vis_costmodel.Cost

let checkb = Alcotest.(check bool)

let checkf msg = Alcotest.(check (float 1e-6)) msg

let schema1 () = Vis_workload.Schemas.schema1 ()

(* ------------------------------------------------------------------ *)
(* yao and Y_WAP. *)

let test_yao_cases () =
  checkf "few fetches: k" 10. (Yao.yao ~n:1000. ~p:100. ~k:10.);
  checkf "middle: (k+p)/3" ((100. +. 100.) /. 3.) (Yao.yao ~n:1000. ~p:100. ~k:100.);
  checkf "many fetches: p" 100. (Yao.yao ~n:1000. ~p:100. ~k:300.);
  checkf "zero fetches" 0. (Yao.yao ~n:1000. ~p:100. ~k:0.);
  checkf "boundary p/2" ((50. +. 100.) /. 3.) (Yao.yao ~n:1000. ~p:100. ~k:50.)

let test_ywap_cases () =
  checkf "fits in memory: min(k,p)" 30. (Yao.y_wap ~n:0. ~p:50. ~k:30. ~m:100.);
  checkf "fits in memory, k>p" 50. (Yao.y_wap ~n:0. ~p:50. ~k:90. ~m:100.);
  checkf "few fetches: k" 20. (Yao.y_wap ~n:0. ~p:200. ~k:20. ~m:100.);
  checkf "thrashing" (100. +. (100. *. (200. -. 100.) /. 200.))
    (Yao.y_wap ~n:0. ~p:200. ~k:200. ~m:100.);
  checkf "zero" 0. (Yao.y_wap ~n:0. ~p:200. ~k:0. ~m:100.)

let prop_yao_bounded =
  QCheck2.Test.make ~name:"yao: result within [0, min(k,p)] .. p" ~count:300
    QCheck2.Gen.(pair (float_bound_inclusive 1e5) (float_bound_inclusive 1e5))
    (fun (p, k) ->
      let r = Yao.yao ~n:1e6 ~p ~k in
      r >= 0. && r <= p +. 1e-9 && (k <= 0. || p <= 0. || r > 0.))

(* Y_WAP is not monotone in memory at the regime boundary (the paper's
   piecewise definition jumps from thrashing to min(k, p)); the invariants
   that do hold are 0 <= Y_WAP <= k, with equality min(k,p) when the
   relation fits in the buffer. *)
let prop_ywap_bounded =
  QCheck2.Test.make ~name:"Y_WAP: bounded by the fetch count" ~count:300
    QCheck2.Gen.(triple (float_range 1. 1e4) (float_range 0. 1e4) (float_range 1. 1e4))
    (fun (p, k, m) ->
      let r = Yao.y_wap ~n:0. ~p ~k ~m in
      r >= 0. && r <= k +. 1e-9
      && (p > m || r = Float.min k p))

(* ------------------------------------------------------------------ *)
(* Elements and configurations. *)

let st = Bitset.of_list [ 1; 2 ]

let ix_v_r0 schema =
  {
    Element.ix_elem = Element.View (Schema.all_relations schema);
    ix_attr = { Element.a_rel = 0; a_name = "R0" };
  }

let ix_st_s1 =
  { Element.ix_elem = Element.View st; ix_attr = { Element.a_rel = 1; a_name = "S1" } }

let test_element_stats () =
  let s = schema1 () in
  let d = Derived.create s in
  (* Base T is the full replica; View {T} is the σ-view. *)
  checkf "T(Base T)" 10000. (Element.card d (Element.Base 2));
  checkf "T(View σT)" 1000. (Element.card d (Element.View (Bitset.singleton 2)));
  checkb "σ-view smaller" true
    (Element.pages d (Element.View (Bitset.singleton 2))
    < Element.pages d (Element.Base 2));
  Alcotest.(check string) "name V" "V"
    (Element.name s (Element.View (Schema.all_relations s)));
  Alcotest.(check string) "name base" "T" (Element.name s (Element.Base 2));
  Alcotest.(check string) "σ name" "\xcf\x83T"
    (Element.name s (Element.View (Bitset.singleton 2)))

let test_config_ops () =
  let s = schema1 () in
  let c = Config.empty in
  checkb "empty has no view" false (Config.has_view c st);
  let c = Config.add_view c st in
  checkb "added view" true (Config.has_view c st);
  let c = Config.add_index c ix_st_s1 in
  checkb "added index" true
    (Config.has_index c (Element.View st) { Element.a_rel = 1; a_name = "S1" });
  Alcotest.(check int) "indexes_on" 1
    (List.length (Config.indexes_on c (Element.View st)));
  let c2 = Config.remove_index c ix_st_s1 in
  checkb "removed index" false
    (Config.has_index c2 (Element.View st) { Element.a_rel = 1; a_name = "S1" });
  (* Canonical signature is order independent. *)
  let a =
    Config.make ~views:[ st; Bitset.singleton 2 ] ~indexes:[ ix_st_s1; ix_v_r0 s ]
  in
  let b =
    Config.make ~views:[ Bitset.singleton 2; st ] ~indexes:[ ix_v_r0 s; ix_st_s1 ]
  in
  Alcotest.(check string) "signature canonical" (Config.signature a) (Config.signature b);
  checkb "equal" true (Config.equal a b)

let test_config_restrict_space () =
  let s = schema1 () in
  let d = Derived.create s in
  let c = Config.make ~views:[ st ] ~indexes:[ ix_st_s1; ix_v_r0 s ] in
  let r = Config.restrict c ~rels:st in
  Alcotest.(check int) "restricted keeps subview" 1 (List.length (Config.views r));
  Alcotest.(check int) "restricted drops V index" 1 (List.length (Config.indexes r));
  let space = Config.space d c in
  checkb "space positive" true (space > 0.);
  checkf "space additive"
    (Derived.view_pages d st
    +. (Element.index_shape d ix_st_s1).Derived.ix_pages
    +. (Element.index_shape d (ix_v_r0 s)).Derived.ix_pages)
    space

(* ------------------------------------------------------------------ *)
(* Cost engine. *)

let test_zero_deltas_zero_cost () =
  let s =
    Schema.with_deltas (schema1 ())
      (List.init 3 (fun _ -> { Schema.n_ins = 0.; n_del = 0.; n_upd = 0. }))
  in
  let d = Derived.create s in
  checkf "no deltas, no cost" 0. (Cost.total_of d Config.empty)

let test_base_insert_cost () =
  let s = schema1 () in
  let d = Derived.create s in
  let eval = Cost.create d Config.empty in
  (* 900 insertions at 102 tuples/page: read 9 pages, append 9 pages. *)
  let p, plan = Cost.prop_ins eval ~target:(Element.Base 0) ~rel:0 in
  checkf "eval reads delta" 9. p.Cost.p_eval;
  checkf "apply appends" 9. p.Cost.p_apply;
  checkf "no index cost" 0. p.Cost.p_index;
  checkb "trivial plan" true (plan.Cost.ip_steps = []);
  checkf "result tuples" 900. p.Cost.p_result_tuples

let test_primary_ins_plan_uses_view () =
  let s = schema1 () in
  let d = Derived.create s in
  let full = Schema.all_relations s in
  (* With ST' materialized, ΔR should join it directly instead of S and T. *)
  let config = Config.make ~views:[ st ] ~indexes:[] in
  let eval = Cost.create d config in
  let p_with, plan = Cost.prop_ins eval ~target:(Element.View full) ~rel:0 in
  (match plan.Cost.ip_steps with
  | [ (Element.View w, Cost.Nbj) ] -> checkb "joins ST'" true (Bitset.equal w st)
  | _ -> Alcotest.fail "expected a single join with ST'");
  let p_without, _ =
    Cost.prop_ins (Cost.create d Config.empty) ~target:(Element.View full) ~rel:0
  in
  checkb "view makes insertions cheaper" true
    (p_with.Cost.p_eval < p_without.Cost.p_eval)

let test_saved_delta_reuse () =
  let s = schema1 () in
  let d = Derived.create s in
  let full = Schema.all_relations s in
  (* With RS materialized, insertions to R onto V can start from ΔRS^save. *)
  let rs = Bitset.of_list [ 0; 1 ] in
  let config = Config.make ~views:[ rs ] ~indexes:[] in
  let eval = Cost.create d config in
  let _, plan = Cost.prop_ins eval ~target:(Element.View full) ~rel:0 in
  match plan.Cost.ip_start with
  | Cost.From_saved w -> checkb "starts from saved ΔRS" true (Bitset.equal w rs)
  | Cost.From_delta -> Alcotest.fail "expected saved-delta reuse"

let test_del_uses_key_index () =
  let s = schema1 () in
  let d = Derived.create s in
  let full = Schema.all_relations s in
  let target = Element.View full in
  let no_ix = Cost.create d Config.empty in
  let p_scan, how_scan = Cost.prop_del no_ix ~target ~rel:0 in
  checkb "scan without index" true (how_scan = Cost.Loc_scan);
  let with_ix = Cost.create d (Config.make ~views:[] ~indexes:[ ix_v_r0 s ]) in
  let p_ix, how_ix = Cost.prop_del with_ix ~target ~rel:0 in
  (match how_ix with
  | Cost.Loc_key_index _ -> ()
  | Cost.Loc_scan -> Alcotest.fail "expected key-index locate");
  checkb "index locate cheaper" true
    (p_ix.Cost.p_eval +. p_ix.Cost.p_apply < p_scan.Cost.p_eval +. p_scan.Cost.p_apply);
  (* The index itself must now be maintained for insertions/deletions. *)
  let pi, _ = Cost.prop_ins with_ix ~target ~rel:0 in
  checkb "index maintenance charged" true (pi.Cost.p_index > 0.)

let test_upd_no_index_maintenance () =
  let s =
    Schema.with_deltas (schema1 ())
      [
        { Schema.n_ins = 0.; n_del = 0.; n_upd = 100. };
        { Schema.n_ins = 0.; n_del = 0.; n_upd = 0. };
        { Schema.n_ins = 0.; n_del = 0.; n_upd = 0. };
      ]
  in
  let d = Derived.create s in
  let eval = Cost.create d (Config.make ~views:[] ~indexes:[ ix_v_r0 s ]) in
  let p, _ = Cost.prop_upd eval ~target:(Element.View (Schema.all_relations s)) ~rel:0 in
  checkf "protected updates do not touch indexes" 0. p.Cost.p_index;
  checkb "but they do cost" true (p.Cost.p_eval +. p.Cost.p_apply > 0.)

let test_supporting_view_save_charged () =
  let s = schema1 () in
  let d = Derived.create s in
  let eval = Cost.create d (Config.make ~views:[ st ] ~indexes:[]) in
  let p_sup, _ = Cost.prop_ins eval ~target:(Element.View st) ~rel:1 in
  checkb "supporting view saves its delta" true (p_sup.Cost.p_save > 0.);
  let p_pri, _ =
    Cost.prop_ins eval ~target:(Element.View (Schema.all_relations s)) ~rel:1
  in
  checkf "primary view does not save" 0. p_pri.Cost.p_save

let test_total_structure () =
  let s = schema1 () in
  let d = Derived.create s in
  let eval = Cost.create d (Config.make ~views:[ st ] ~indexes:[]) in
  let elems = Cost.maintained_elements eval in
  Alcotest.(check int) "3 bases + ST' + V" 5 (List.length elems);
  let sum = List.fold_left (fun acc e -> acc +. Cost.element_cost eval e) 0. elems in
  checkf "total is the sum over elements" sum (Cost.total eval)

let test_index_maint_cost () =
  let s = schema1 () in
  let d = Derived.create s in
  let ix = ix_v_r0 s in
  let eval = Cost.create d (Config.make ~views:[] ~indexes:[ ix ]) in
  let own = Cost.index_maint_cost eval ix in
  checkb "index maintenance positive" true (own > 0.);
  (* It is part of the element's total. *)
  let with_ix = Cost.element_cost eval (Element.View (Schema.all_relations s)) in
  let without =
    Cost.element_cost (Cost.create d Config.empty)
      (Element.View (Schema.all_relations s))
  in
  (* The key index may reduce del/upd cost but its Apply_ix is included. *)
  checkb "element cost changed" true (abs_float (with_ix -. without) > 1e-9)

(* Properties: adding structures never increases any expression's
   evaluation cost (the plan space only grows), and the memoization cache
   is consistent across evaluators. *)

let random_config ~rng p =
  let views =
    List.filter (fun _ -> Random.State.bool rng) p.Vis_core.Problem.candidate_views
  in
  let indexes =
    List.filter (fun _ -> Random.State.bool rng)
      (Vis_core.Problem.indexes_for_views p views)
  in
  Config.make ~views ~indexes

let prop_eval_monotone =
  QCheck2.Test.make ~name:"cost: adding a feature never raises an eval cost"
    ~count:60
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Vis_core.Problem.make schema in
      let config = random_config ~rng p in
      let bigger =
        Config.make
          ~views:p.Vis_core.Problem.candidate_views
          ~indexes:
            (Vis_core.Problem.indexes_for_views p p.Vis_core.Problem.candidate_views)
      in
      let e1 = Vis_core.Problem.evaluator p config in
      let e2 = Vis_core.Problem.evaluator p bigger in
      let target = Element.View (Schema.all_relations schema) in
      Bitset.for_all
        (fun r ->
          let a, _ = Cost.prop_ins e1 ~target ~rel:r in
          let b, _ = Cost.prop_ins e2 ~target ~rel:r in
          b.Cost.p_eval <= a.Cost.p_eval +. 1e-6)
        (Schema.all_relations schema))

let prop_total_nonnegative =
  QCheck2.Test.make ~name:"cost: totals are finite and non-negative" ~count:60
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Vis_core.Problem.make schema in
      let total = Vis_core.Problem.total p (random_config ~rng p) in
      Float.is_finite total && total >= 0.)

let prop_shared_cache_consistent =
  QCheck2.Test.make ~name:"cost: shared cache returns identical totals"
    ~count:40
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let schema = Vis_workload.Schemas.random ~rng () in
      let p = Vis_core.Problem.make schema in
      let config = random_config ~rng p in
      let d = Derived.create schema in
      let fresh = Cost.total_of d config in
      let shared = Vis_core.Problem.total p config in
      let again = Vis_core.Problem.total p config in
      Vis_util.Num.approx_equal fresh shared && shared = again)

(* ------------------------------------------------------------------ *)
(* One memo key per restrict class.  The shared cache interns each
   (element, restricted configuration) pair, so after a sequence of totals
   it holds exactly [1 + 3·|rels e|] entries (the element's sum plus one
   insertion, deletion and update propagation per base relation) per
   distinct pair the totals touched — no more (a key too fine loses
   sharing), no fewer (a key too coarse merges configurations the model
   tells apart) — and a jobs-1 run derives each entry exactly once. *)

module Problem = Vis_core.Problem
module Schemas = Vis_workload.Schemas

let checki = Alcotest.(check int)

(* A valid configuration reached by random feature toggles — the states
   the searches visit. *)
let random_walk rng p =
  let features = Array.of_list p.Problem.features in
  let config = ref Config.empty in
  for _ = 0 to Array.length features do
    let f = features.(Random.State.int rng (Array.length features)) in
    if Problem.has_feature !config f then
      config := Problem.drop_feature !config f
    else if Problem.applicable p !config f then
      config := Problem.add_feature !config f
  done;
  !config

(* Set-based containment: every view and index of [a] appears in [b]. *)
let config_subset a b =
  List.for_all (fun v -> Config.has_view b v) (Config.views a)
  && List.for_all
       (fun (ix : Element.index) ->
         Config.has_index b ix.Element.ix_elem ix.Element.ix_attr)
       (Config.indexes a)

let test_applicable_and_drop_closure () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun schema ->
      let p = Problem.make schema in
      for _ = 1 to 100 do
        let config = random_walk rng p in
        List.iter
          (fun f ->
            if Problem.applicable p config f then begin
              let added = Problem.add_feature config f in
              checkb "add stays valid" true (Problem.valid_config p added);
              checkb "add contains parent" true (config_subset config added)
            end;
            (* Dropping a feature also drops its closure (a view takes its
               indexes with it), and the result is still valid. *)
            if Problem.has_feature config f then begin
              let dropped = Problem.drop_feature config f in
              checkb "drop stays valid" true (Problem.valid_config p dropped);
              checkb "drop is below parent" true (config_subset dropped config);
              match f with
              | Problem.F_view w ->
                  checkb "dropped view gone" false (Config.has_view dropped w);
                  checkb "no orphan indexes" true
                    (Config.indexes_on dropped (Element.View w) = [])
              | Problem.F_index _ | Problem.F_compress _ -> ()
            end)
          p.Problem.features
      done)
    [ Schemas.two_relation (); Schemas.schema1 () ]

(* Problems on both sides of the old 62-feature line, with and without the
   compression axis. *)
let keyed_problems () =
  [
    ("schema1", Problem.make (Schemas.schema1 ()));
    ("schema1 compressed", Problem.make ~compression:true (Schemas.schema1 ()));
    ("chain-7", Problem.make (Schemas.chain ~n:7 ()));
    ( "star-6 views <= 3",
      Problem.make ~max_view_rels:3 (Schemas.star ~n_dims:6 ()) );
  ]

let test_one_key_per_restrict_class () =
  let rng = Random.State.make [| 19 |] in
  List.iter
    (fun (name, p) ->
      let classes = Hashtbl.create 256 in
      let expected = ref 0 in
      for _ = 1 to 40 do
        let config = random_walk rng p in
        ignore (Problem.total p config);
        List.iter
          (fun e ->
            let rels = Element.rels e in
            let cls = (e, Config.signature (Config.restrict config ~rels)) in
            if not (Hashtbl.mem classes cls) then begin
              Hashtbl.add classes cls ();
              expected := !expected + 1 + (3 * Bitset.cardinal rels)
            end)
          (Cost.maintained_elements (Problem.evaluator p config))
      done;
      let s = Cost.cache_stats p.Problem.cache in
      checki (name ^ ": entries") !expected s.Cost.cs_entries;
      checki (name ^ ": misses") !expected s.Cost.cs_misses)
    (keyed_problems ())

let test_shared_vs_fresh_totals () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun (name, p) ->
      let total config = Problem.total p config in
      checkb (name ^ ": empty total agrees") true
        (total Config.empty = Cost.total_of p.Problem.derived Config.empty);
      for _ = 1 to 30 do
        let config = random_walk rng p in
        checkb (name ^ ": shared = fresh (bitwise)") true
          (Int64.equal
             (Int64.bits_of_float (total config))
             (Int64.bits_of_float (Cost.total_of p.Problem.derived config)))
      done)
    (("two-relation", Problem.make (Schemas.two_relation ()))
    :: ("chain-4", Problem.make (Schemas.chain ~n:4 ()))
    :: keyed_problems ())

(* ------------------------------------------------------------------ *)
(* Reference [Eval]: a naive transcription of the Appendix-A insertion DP
   that rebuilds every join unit per call, filters the candidate indexes
   inline and keeps the winning step as an option.  The evaluator, which
   splits the DP into a cached configuration-independent skeleton and a
   per-configuration relaxation, must agree with it bit for bit — cost and
   plan, including the tie order (nested-block join before index probes,
   units in the order built here). *)

let ref_read_f config e =
  if Config.has_compress config e then Cost.compress_read_factor else 1.

let ref_inner_access d config unit =
  let s = Derived.schema d in
  let rf = ref_read_f config unit in
  let scan = rf *. Element.pages d unit in
  match unit with
  | Element.View _ -> scan
  | Element.Base i ->
      let sel_attrs = Schema.selection_attrs s i in
      if sel_attrs = [] then scan
      else begin
        let card = Derived.base_card d i in
        let pages = Derived.base_pages d i in
        let shape = Derived.index_shape d ~entries:card in
        let matching = Derived.eff_card d i in
        let via_index attr_name =
          let attr = { Element.a_rel = i; a_name = attr_name } in
          if Config.has_index config unit attr then
            Some
              (float_of_int (shape.Derived.ix_height - 1)
              +. Vis_util.Num.fceil
                   (shape.Derived.ix_pages *. matching /. Float.max card 1e-9)
              +. rf
                 *. Yao.y_wap ~n:card ~p:pages ~k:matching
                      ~m:(float_of_int s.Schema.mem_pages))
          else None
        in
        List.fold_left
          (fun best a ->
            match via_index a with Some c -> Float.min best c | None -> best)
          scan sel_attrs
      end

let ref_eval_ins d config target_set r =
  let s = Derived.schema d in
  let i_r = (Schema.delta s r).Schema.n_ins in
  let scale = i_r /. Derived.base_card d r in
  let pm = float_of_int s.Schema.mem_pages in
  let half_mem = pm /. 2. in
  let positions = Array.of_list (Bitset.elements target_set) in
  let nstates = 1 lsl Array.length positions in
  let bit_of_rel rel =
    let rec find b = if positions.(b) = rel then b else find (b + 1) in
    find 0
  in
  let dense_of_set set =
    Bitset.fold (fun rel acc -> acc lor (1 lsl bit_of_rel rel)) set 0
  in
  let set_of_code code =
    let set = ref Bitset.empty in
    Array.iteri
      (fun b rel -> if code land (1 lsl b) <> 0 then set := Bitset.add rel !set)
      positions;
    !set
  in
  let count code = Derived.view_card d (set_of_code code) *. scale in
  let result_pages code =
    Derived.pages_of_tuples d ~set:(set_of_code code) ~tuples:(count code)
  in
  let r_bit = 1 lsl bit_of_rel r in
  let make_unit elem =
    let urels = Element.rels elem in
    let probes =
      List.filter_map
        (fun (j : Schema.join) ->
          let inside =
            if
              Bitset.mem j.Schema.left_rel urels
              && (not (Bitset.mem j.Schema.right_rel urels))
              && Bitset.mem j.Schema.right_rel target_set
            then
              Some
                ( { Element.a_rel = j.Schema.left_rel; a_name = j.Schema.left_attr },
                  j.Schema.right_rel )
            else if
              Bitset.mem j.Schema.right_rel urels
              && (not (Bitset.mem j.Schema.left_rel urels))
              && Bitset.mem j.Schema.left_rel target_set
            then
              Some
                ( { Element.a_rel = j.Schema.right_rel; a_name = j.Schema.right_attr },
                  j.Schema.left_rel )
            else None
          in
          match inside with
          | Some (attr, outside_rel) when Config.has_index config elem attr ->
              let card = Element.card d elem in
              let shape = Derived.index_shape d ~entries:card in
              let matches = card *. j.Schema.join_sel in
              let per_probe =
                float_of_int (max 0 (shape.Derived.ix_height - 2))
                +. Vis_util.Num.fceil
                     (shape.Derived.ix_pages *. matches /. Float.max card 1e-9)
              in
              Some
                ( 1 lsl bit_of_rel outside_rel,
                  matches,
                  shape.Derived.ix_pages,
                  per_probe,
                  Element.pages d elem,
                  attr )
          | _ -> None)
        s.Schema.joins
    in
    ( elem,
      dense_of_set urels,
      ref_inner_access d config elem,
      ref_read_f config elem,
      probes )
  in
  let units =
    Bitset.fold
      (fun i acc -> if i = r then acc else make_unit (Element.Base i) :: acc)
      target_set []
    @ List.filter_map
        (fun w ->
          if Bitset.subset w target_set && not (Bitset.mem r w) then
            Some (make_unit (Element.View w))
          else None)
        (Config.views config)
  in
  let cost = Array.make nstates infinity in
  let from = Array.make nstates (-1) in
  let step = Array.make nstates None in
  let start = Array.make nstates Cost.From_delta in
  let relax code c prev st sstart =
    if c < cost.(code) then begin
      cost.(code) <- c;
      from.(code) <- prev;
      step.(code) <- st;
      start.(code) <- sstart
    end
  in
  relax r_bit (Derived.delta_pages d ~rel:r ~count:i_r) (-1) None Cost.From_delta;
  List.iter
    (fun w ->
      if Bitset.mem r w && Bitset.proper_subset w target_set then
        let code = dense_of_set w in
        relax code (result_pages code) (-1) None (Cost.From_saved w))
    (Config.views config);
  for code = r_bit to nstates - 1 do
    if code land r_bit <> 0 && cost.(code) < infinity then begin
      let outer_tuples = count code in
      let blocks = Float.ceil (result_pages code /. pm) in
      List.iter
        (fun (elem, mask, inner_access, rf, probes) ->
          if code land mask = 0 then begin
            let next = code lor mask in
            let base = cost.(code) in
            relax next (base +. (blocks *. inner_access)) code
              (Some (elem, Cost.Nbj)) start.(code);
            List.iter
              (fun (outside_bit, matches, ix_pages, per_probe, pages, attr) ->
                if code land outside_bit <> 0 then begin
                  let card = Element.card d elem in
                  let c =
                    Yao.y_wap ~n:card ~p:ix_pages
                      ~k:(outer_tuples *. per_probe) ~m:half_mem
                    +. rf
                       *. Yao.y_wap ~n:card ~p:pages
                            ~k:(outer_tuples *. matches) ~m:half_mem
                  in
                  let ix = { Element.ix_elem = elem; ix_attr = attr } in
                  relax next (base +. c) code
                    (Some (elem, Cost.Index_join ix))
                    start.(code)
                end)
              probes
          end)
        units
    end
  done;
  let final = nstates - 1 in
  let rec walk code acc =
    match (from.(code), step.(code)) with
    | prev, Some st when prev >= 0 -> walk prev (st :: acc)
    | _ -> (start.(code), acc)
  in
  let st, steps = walk final [] in
  (cost.(final), { Cost.ip_start = st; ip_steps = steps })

(* [p_eval] and plan of [prop_ins] by the reference DP. *)
let ref_prop_ins_eval d config target r =
  let i_r = (Schema.delta (Derived.schema d) r).Schema.n_ins in
  let no_steps = { Cost.ip_start = Cost.From_delta; ip_steps = [] } in
  if i_r <= 0. then (0., no_steps)
  else
    match target with
    | Element.Base _ -> (Derived.delta_pages d ~rel:r ~count:i_r, no_steps)
    | Element.View set -> ref_eval_ins d config set r

(* What the comparisons covered, so a test can insist its configurations
   reached every path of the DP. *)
type ref_coverage = {
  mutable compared : int;
  mutable saved_starts : int;
  mutable index_joins : int;
  mutable compressed_units : int;
}

let new_coverage () =
  { compared = 0; saved_starts = 0; index_joins = 0; compressed_units = 0 }

let check_against_reference cov label d config eval =
  List.iter
    (fun target ->
      Bitset.iter
        (fun r ->
          let p, plan = Cost.prop_ins eval ~target ~rel:r in
          let ref_cost, ref_plan = ref_prop_ins_eval d config target r in
          if
            not
              (Int64.equal
                 (Int64.bits_of_float p.Cost.p_eval)
                 (Int64.bits_of_float ref_cost))
          then
            Alcotest.failf "%s: %s rel %d: p_eval %h, reference %h" label
              (Element.name (Derived.schema d) target)
              r p.Cost.p_eval ref_cost;
          if plan <> ref_plan then
            Alcotest.failf "%s: %s rel %d: plan %a, reference %a" label
              (Element.name (Derived.schema d) target)
              r
              (Cost.pp_ins_plan (Derived.schema d) ~target ~rel:r)
              plan
              (Cost.pp_ins_plan (Derived.schema d) ~target ~rel:r)
              ref_plan;
          cov.compared <- cov.compared + 1;
          (match plan.Cost.ip_start with
          | Cost.From_saved _ -> cov.saved_starts <- cov.saved_starts + 1
          | Cost.From_delta -> ());
          List.iter
            (fun (unit, how) ->
              (match how with
              | Cost.Index_join _ -> cov.index_joins <- cov.index_joins + 1
              | Cost.Nbj -> ());
              if Config.has_compress config unit then
                cov.compressed_units <- cov.compressed_units + 1)
            plan.Cost.ip_steps)
        (Element.rels target))
    (Cost.maintained_elements eval)

(* Walk [steps] configurations of [p] by random feature toggles; compare each
   through a fresh evaluator and through the problem's shared cache, which
   stays warm along the walk so skeletons are reused across
   configurations. *)
let walk_against_reference cov ~label ~rng ~steps ~toggles p =
  let features = Array.of_list p.Problem.features in
  let d = p.Problem.derived in
  let config = ref Config.empty in
  for step = 1 to steps do
    for _ = 1 to toggles do
      let f = features.(Random.State.int rng (Array.length features)) in
      if Problem.has_feature !config f then config := Problem.drop_feature !config f
      else if Problem.applicable p !config f then
        config := Problem.add_feature !config f
    done;
    let label = Printf.sprintf "%s step %d" label step in
    check_against_reference cov (label ^ " fresh") d !config
      (Cost.create d !config);
    check_against_reference cov (label ^ " shared") d !config
      (Problem.evaluator p !config)
  done

let require_coverage cov =
  checkb "compared some expressions" true (cov.compared > 0);
  checkb "saved-delta starts reached" true (cov.saved_starts > 0);
  checkb "index joins reached" true (cov.index_joins > 0);
  checkb "compressed units reached" true (cov.compressed_units > 0)

let test_reference_table2 () =
  let cov = new_coverage () in
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun (label, schema) ->
      walk_against_reference cov ~label ~rng ~steps:40 ~toggles:2
        (Problem.make ~compression:true schema))
    [
      ("2 rel, 1 sel", Schemas.two_relation ());
      ("2 rel, sel 50%", Schemas.two_relation ~sel_s:0.5 ());
      ("3 rel (S1) no del", Schemas.schema1 ~del_frac:0. ());
      ("3 rel Schema 1", Schemas.schema1 ());
      ("3 rel Schema 2", Schemas.schema2 ());
      ("4 rel chain", Schemas.chain ~n:4 ());
    ];
  require_coverage cov

let test_reference_random () =
  let cov = new_coverage () in
  for seed = 1 to 40 do
    let rng = Random.State.make [| seed |] in
    let schema = Schemas.random ~rng () in
    walk_against_reference cov ~label:(Printf.sprintf "random seed %d" seed)
      ~rng ~steps:8 ~toggles:3
      (Problem.make ~compression:true schema)
  done;
  require_coverage cov

let test_reference_star6 () =
  let cov = new_coverage () in
  let rng = Random.State.make [| 31 |] in
  let p =
    Problem.make ~max_view_rels:3 ~compression:true (Schemas.star ~n_dims:6 ())
  in
  walk_against_reference cov ~label:"star-6" ~rng ~steps:12 ~toggles:12 p;
  require_coverage cov

(* Small relations and a small buffer push the Table 5 costs onto integer
   page counts, where a nested-block join and an index probe can cost
   exactly the same; the winner must then be the one relaxed first. *)
let test_reference_ties () =
  let cov = new_coverage () in
  let rng = Random.State.make [| 37 |] in
  let two card_r card_s mem_pages ins_frac =
    ( Printf.sprintf "R %g S %g mem %d ins %g" card_r card_s mem_pages ins_frac,
      Schemas.two_relation ~card_r ~card_s ~sel_s:0.5 ~ins_frac ~mem_pages () )
  in
  let chain base_card mem_pages ins_frac =
    ( Printf.sprintf "chain-3 %g mem %d ins %g" base_card mem_pages ins_frac,
      Schemas.chain ~n:3 ~base_card ~ins_frac ~mem_pages () )
  in
  List.iter
    (fun (label, schema) ->
      walk_against_reference cov ~label ~rng ~steps:30 ~toggles:2
        (Problem.make ~compression:true schema))
    [
      two 30_000. 50. 2 0.01;
      two 100. 200. 2 0.01;
      two 10_000. 50. 3 0.05;
      two 3_000. 100. 4 0.2;
      chain 50. 4 0.01;
      chain 500. 8 0.1;
    ];
  require_coverage cov

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vis_costmodel"
    [
      ( "estimators",
        [
          Alcotest.test_case "yao cases" `Quick test_yao_cases;
          Alcotest.test_case "Y_WAP cases" `Quick test_ywap_cases;
        ]
        @ qt [ prop_yao_bounded; prop_ywap_bounded ] );
      ( "elements and configs",
        [
          Alcotest.test_case "element stats" `Quick test_element_stats;
          Alcotest.test_case "config operations" `Quick test_config_ops;
          Alcotest.test_case "restrict and space" `Quick test_config_restrict_space;
        ] );
      ( "cost engine",
        [
          Alcotest.test_case "zero deltas" `Quick test_zero_deltas_zero_cost;
          Alcotest.test_case "base insertions" `Quick test_base_insert_cost;
          Alcotest.test_case "plans use views" `Quick test_primary_ins_plan_uses_view;
          Alcotest.test_case "saved-delta reuse" `Quick test_saved_delta_reuse;
          Alcotest.test_case "key-index locate" `Quick test_del_uses_key_index;
          Alcotest.test_case "protected updates" `Quick test_upd_no_index_maintenance;
          Alcotest.test_case "save charged" `Quick test_supporting_view_save_charged;
          Alcotest.test_case "total structure" `Quick test_total_structure;
          Alcotest.test_case "index maintenance" `Quick test_index_maint_cost;
        ]
        @ qt
            [
              prop_eval_monotone;
              prop_total_nonnegative;
              prop_shared_cache_consistent;
            ] );
      ( "bit laws",
        [
          Alcotest.test_case "applicable / drop closure" `Quick
            test_applicable_and_drop_closure;
        ] );
      ( "evaluator agreement",
        [
          Alcotest.test_case "one key per restrict class" `Quick
            test_one_key_per_restrict_class;
          Alcotest.test_case "shared = fresh, bitwise" `Quick
            test_shared_vs_fresh_totals;
        ] );
      ( "reference DP",
        [
          Alcotest.test_case "table 2 schemas" `Quick test_reference_table2;
          Alcotest.test_case "random schemas" `Quick test_reference_random;
          Alcotest.test_case "star-6 views <= 3" `Quick test_reference_star6;
          Alcotest.test_case "cost ties" `Quick test_reference_ties;
        ] );
    ]
