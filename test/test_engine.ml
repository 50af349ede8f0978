(* Randomized cross-validation of the indexed semi-naive saturation engine
   (lib/engine) against the naive re-enumerating chase: identical s-levels
   (Lemma A.1 canonicity is preserved by the delta-driven evaluation),
   identical certain answers, budget-cut prefixes, saturation idempotence,
   and joiner/index unit properties. Generators live in Generators. *)

open Relational
open Relational.Term
module Chase = Tgds.Chase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Generators.v
let atom = Generators.atom
let fact = Generators.fact
let tgd = Generators.tgd
let arb_sigma_db = Generators.arb_sigma_db
let queries = Generators.queries

(* ------------------------------------------------------------------ *)
(* Level-wise equivalence: chase^ℓ_s agrees level by level              *)
(* ------------------------------------------------------------------ *)

let max_level = 6

let levels_agree ~policy (sigma, db) =
  let naive = Chase.run ~engine:`Naive ~policy ~max_level ~max_facts:5000 sigma db in
  let indexed =
    Chase.run ~engine:`Indexed ~policy ~max_level ~max_facts:5000 sigma db
  in
  Chase.saturated naive = Chase.saturated indexed
  && List.for_all
       (fun l ->
         Instance.size (Chase.up_to_level naive l)
         = Instance.size (Chase.up_to_level indexed l))
       (List.init (max_level + 1) Fun.id)

let prop_levels_oblivious =
  QCheck.Test.make ~name:"indexed ≍ naive per level (oblivious)" ~count:200
    arb_sigma_db
    (levels_agree ~policy:Chase.Oblivious)

let prop_levels_restricted =
  QCheck.Test.make ~name:"indexed ≍ naive per level (restricted)" ~count:200
    arb_sigma_db
    (levels_agree ~policy:Chase.Restricted)

(* ------------------------------------------------------------------ *)
(* Certain answers agree under both engines                             *)
(* ------------------------------------------------------------------ *)

let prop_certain_agrees =
  QCheck.Test.make ~name:"certain answers agree across engines" ~count:120
    arb_sigma_db (fun (sigma, db) ->
      List.for_all
        (fun q ->
          let vn, en = Chase.certain ~engine:`Naive ~max_level:8 sigma db q [] in
          let vi, ei = Chase.certain ~engine:`Indexed ~max_level:8 sigma db q [] in
          en = ei && ((not en) || vn = vi))
        queries)

(* ------------------------------------------------------------------ *)
(* Idempotence: saturating an already-saturated instance is a no-op     *)
(* ------------------------------------------------------------------ *)

(* Restricted re-saturation dismisses every trigger of a saturated
   instance (its head is witnessed), whatever policy produced it. *)
let prop_resaturate_restricted_noop =
  QCheck.Test.make ~name:"restricted re-saturation of a saturated chase is a no-op"
    ~count:150 arb_sigma_db (fun (sigma, db) ->
      let r = Chase.run ~max_level:6 ~max_facts:2000 sigma db in
      (not (Chase.saturated r))
      ||
      let r2 = Chase.run ~policy:Chase.Restricted sigma (Chase.instance r) in
      Chase.saturated r2
      && Chase.max_level r2 = 0
      && Instance.size (Chase.instance r2) = Instance.size (Chase.instance r))

(* Oblivious re-saturation is only a no-op without existentials (a fresh
   run re-fires existential triggers with fresh nulls); on the full pool
   every re-fired head is already present, so the instance is unchanged. *)
let prop_resaturate_oblivious_full_noop =
  QCheck.Test.make
    ~name:"oblivious re-saturation is a no-op on full programs" ~count:150
    Generators.arb_full_sigma_db (fun (sigma, db) ->
      let r = Chase.run sigma db in
      Chase.saturated r
      &&
      let r2 = Chase.run ~policy:Chase.Oblivious sigma (Chase.instance r) in
      Chase.saturated r2
      && Instance.equal (Chase.instance r2) (Chase.instance r))

(* ------------------------------------------------------------------ *)
(* Budgets: a level-budgeted run is the unbudgeted run truncated        *)
(* ------------------------------------------------------------------ *)

let prop_budget_level_prefix =
  QCheck.Test.make
    ~name:"level-budgeted chase = unbudgeted chase sliced at the budget"
    ~count:120 arb_sigma_db (fun (sigma, db) ->
      let free = Chase.run ~max_level:6 ~max_facts:5000 sigma db in
      let fpl_free = Chase.facts_per_level free in
      (* cumulative per-level sizes are monotone *)
      let cumulative =
        List.map
          (fun l -> Instance.size (Chase.up_to_level free l))
          (List.init 7 Fun.id)
      in
      let monotone =
        List.for_all2 (fun a b -> a <= b)
          (List.filteri (fun i _ -> i < 6) cumulative)
          (List.tl cumulative)
      in
      monotone
      && List.for_all
           (fun k ->
             let b =
               Chase.run
                 ~budget:(Obs.Budget.create ~max_levels:k ())
                 ~max_facts:5000 sigma db
             in
             let fpl_b = Chase.facts_per_level b in
             let expect =
               List.filteri (fun i _ -> i < k) fpl_free
             in
             Chase.max_level b <= k
             && fpl_b = expect
             && Instance.size (Chase.instance b)
                = Instance.size (Chase.up_to_level free (Chase.max_level b)))
           [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Joiner ≡ Homomorphism.fold_homs on random instances                  *)
(* ------------------------------------------------------------------ *)

let sorted_homs fold =
  fold (fun b acc -> VarMap.bindings b :: acc) [] |> List.sort Stdlib.compare

let prop_joiner_matches_fold_homs =
  QCheck.Test.make ~name:"Joiner.fold enumerates the same homomorphisms"
    ~count:200 arb_sigma_db (fun (sigma, db) ->
      let inst = Chase.instance (Chase.run ~max_level:3 ~max_facts:500 sigma db) in
      let idx = Engine.Index.of_instance inst in
      List.for_all
        (fun q ->
          let body = Cq.atoms (List.hd (Ucq.disjuncts q)) in
          sorted_homs (fun f acc -> Homomorphism.fold_homs body inst f acc)
          = sorted_homs (fun f acc -> Engine.Joiner.fold body idx f acc))
        queries)

(* Differential: answer *sets* (not just counts) of CQ enumeration via the
   joiner agree with the naive fold_homs evaluation. *)
let prop_answer_sets_agree =
  QCheck.Test.make ~name:"Joiner.answers_cq = fold_homs answer set" ~count:200
    (QCheck.make
       ~print:(fun ((s, db), cq) ->
         Fmt.str "%s q=%a" (Generators.print_sigma_db (s, db)) Cq.pp cq)
       QCheck.Gen.(pair (pair Generators.gen_sigma Generators.gen_db) Generators.gen_cq))
    (fun ((sigma, db), cq) ->
      let inst = Chase.instance (Chase.run ~max_level:3 ~max_facts:500 sigma db) in
      let idx = Engine.Index.of_instance inst in
      let via_joiner = Engine.Joiner.answers_cq idx cq in
      let naive =
        Homomorphism.fold_homs (Cq.atoms cq) inst
          (fun b acc ->
            List.map (fun x -> VarMap.find x b) (Cq.answer cq) :: acc)
          []
        |> List.sort_uniq Stdlib.compare
      in
      via_joiner = naive)

(* ------------------------------------------------------------------ *)
(* Enumerate ≡ the seed generate-and-test answers                       *)
(* ------------------------------------------------------------------ *)

(* The seed implementation of Omq_eval.answers, kept verbatim as the
   oracle: entailment-test every |adom|^arity candidate tuple over the
   chased index. *)
let oracle_answers idx db q =
  let dom = Term.ConstSet.elements (Instance.dom db) in
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      List.concat_map (fun t -> List.map (fun c -> c :: t) dom) (tuples (n - 1))
  in
  List.filter (fun c -> Engine.Joiner.entails_ucq idx q c)
    (tuples (Ucq.arity q))
  |> List.sort_uniq Stdlib.compare

let arb_enum_case =
  QCheck.make
    ~print:(fun (((sigma, db), q), engine) ->
      Fmt.str "%s q=%a engine=%s"
        (Generators.print_sigma_db (sigma, db))
        Ucq.pp q
        (Generators.engine_to_string engine))
    QCheck.Gen.(
      pair
        (pair (pair Generators.gen_sigma Generators.gen_db) Generators.gen_ucq)
        Generators.gen_engine)

let prop_enumerate_matches_generate_and_test =
  QCheck.Test.make
    ~name:"Enumerate.ucq = generate-and-test oracle (arity 0-3, all engines)"
    ~count:250 arb_enum_case
    (fun (((sigma, db), q), engine) ->
      let r = Chase.run ~engine ~max_level:4 ~max_facts:400 sigma db in
      let idx = Chase.index r in
      let enum =
        (Engine.Enumerate.ucq ~universe:(Instance.dom db) idx q)
          .Engine.Enumerate.answers
      in
      enum = oracle_answers idx db q)

(* A facts budget cuts the stream gracefully: the prefix is a subset of
   the exact set, and a Complete outcome means the whole set. *)
let prop_enumerate_budget_prefix =
  QCheck.Test.make ~name:"budgeted enumeration is a prefix of the answer set"
    ~count:150
    (QCheck.make
       ~print:(fun ((((s, db), q), e), k) ->
         Fmt.str "%s q=%a engine=%s k=%d"
           (Generators.print_sigma_db (s, db))
           Ucq.pp q
           (Generators.engine_to_string e)
           k)
       QCheck.Gen.(
         pair
           (pair
              (pair (pair Generators.gen_sigma Generators.gen_db)
                 Generators.gen_ucq)
              Generators.gen_engine)
           (int_range 0 5)))
    (fun ((((sigma, db), q), engine), k) ->
      let r = Chase.run ~engine ~max_level:4 ~max_facts:400 sigma db in
      let idx = Chase.index r in
      let universe = Instance.dom db in
      let exact = (Engine.Enumerate.ucq ~universe idx q).Engine.Enumerate.answers in
      let budget = Obs.Budget.create ~max_facts:k () in
      let res = Engine.Enumerate.ucq ~budget ~universe idx q in
      List.for_all (fun t -> List.mem t exact) res.Engine.Enumerate.answers
      &&
      match res.Engine.Enumerate.outcome with
      | Obs.Budget.Complete -> res.Engine.Enumerate.answers = exact
      | Obs.Budget.Partial _ ->
          List.length res.Engine.Enumerate.answers <= k + 1)

(* Unit corners of the enumerator: null filtering, free answer
   variables, Boolean queries, cross-disjunct dedup. *)
let test_enumerate_corners () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "B" [ "b" ] ] in
  let r = Chase.run ~max_level:2 sigma db in
  let idx = Chase.index r in
  let universe = Instance.dom db in
  let answers q =
    (Engine.Enumerate.ucq ~universe idx q).Engine.Enumerate.answers
  in
  (* S(a, n) holds with an invented null n: x=a is an answer of q(x) :-
     S(x,y), but no null ever appears in an answer position *)
  let q1 = Ucq.of_cq (Cq.make ~answer:[ "x" ] [ atom "S" [ v "x"; v "y" ] ]) in
  Alcotest.(check (list (list string)))
    "nulls never surface" [ [ "a" ] ]
    (List.map (List.map (Fmt.str "%a" Term.pp_const)) (answers q1));
  (* a free answer variable ranges over the whole active domain *)
  let q2 = Ucq.of_cq (Cq.make ~answer:[ "z" ] [ atom "A" [ v "x" ] ]) in
  check_int "free variable expands over adom" 2 (List.length (answers q2));
  (* Boolean query: [[]] iff it holds *)
  let q3 = Ucq.of_cq (Cq.make [ atom "S" [ v "x"; v "y" ] ]) in
  check "boolean true is [[]]" true (answers q3 = [ [] ]);
  let q4 = Ucq.of_cq (Cq.make [ atom "T" [ v "x"; v "y" ] ]) in
  check "boolean false is []" true (answers q4 = []);
  (* identical disjuncts dedup into one canonical set *)
  let d = Cq.make ~answer:[ "x" ] [ atom "A" [ v "x" ] ] in
  check "disjuncts dedup" true
    (answers (Ucq.make [ d; d ]) = answers (Ucq.of_cq d))

(* ------------------------------------------------------------------ *)
(* Index unit properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_index_roundtrip =
  QCheck.Test.make ~name:"Index.of_instance/to_instance roundtrip" ~count:200
    (QCheck.make ~print:(Fmt.str "%a" Instance.pp) Generators.gen_db) (fun db ->
      Instance.equal db (Engine.Index.to_instance (Engine.Index.of_instance db)))

(* [Index.compare_keys] must order keys exactly as [Fact.compare] orders
   the facts they spell — the maintenance ledger's body/head rows and
   its over-delete set are sorted with it, and the image bytes and null
   ids follow from that order. Predicate and constant names share
   prefixes, arities vary under one predicate, and nulls mix with named
   constants. *)
let gen_mixed_fact =
  QCheck.Gen.(
    let gc =
      oneof
        [
          map (fun s -> Term.Named s) (oneofl [ ""; "a"; "ab"; "b"; "B"; "a0" ]);
          map (fun n -> Term.Null n) (oneofl [ 1; 2; 10; 11 ]);
        ]
    in
    let* p = oneofl [ "P"; "PQ"; "Q"; "p" ] and* args = list_size (int_range 0 3) gc in
    return (Fact.make p args))

let prop_compare_keys_is_fact_compare =
  QCheck.Test.make ~name:"Index.compare_keys ≡ Fact.compare" ~count:300
    (QCheck.make
       ~print:(fun fs -> String.concat " " (List.map (Fmt.str "%a" Fact.pp) fs))
       QCheck.Gen.(list_size (int_range 1 12) gen_mixed_fact))
    (fun facts ->
      let idx = Engine.Index.create () in
      let keyed = List.map (fun f -> (f, Engine.Index.intern_fact idx f)) facts in
      List.for_all
        (fun (f, k) ->
          List.for_all
            (fun (g, l) ->
              Int.compare (Engine.Index.compare_keys idx k l) 0
              = Int.compare (Fact.compare f g) 0)
            keyed)
        keyed)

let test_index_postings () =
  let idx =
    Engine.Index.of_instance
      (Instance.of_facts
         [ fact "S" [ "a"; "b" ]; fact "S" [ "a"; "c" ]; fact "S" [ "b"; "c" ] ])
  in
  check_int "bucket (S,0,a)" 2 (Engine.Index.count_at idx "S" 0 (Named "a"));
  check_int "bucket (S,1,c)" 2 (Engine.Index.count_at idx "S" 1 (Named "c"));
  check_int "relation size" 3 (Engine.Index.count_of idx "S");
  check "duplicate insert rejected" false
    (Engine.Index.insert (fact "S" [ "a"; "b" ]) idx);
  check_int "size unchanged" 3 (Engine.Index.size idx)

let test_delta_restriction () =
  (* the chase's semi-naive join: the pivot atom is matched against a
     delta fact's interned key, the rest of the body against the index *)
  let inst =
    Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ]; fact "S" [ "a"; "b" ] ]
  in
  let idx = Engine.Index.of_instance inst in
  let body = [ atom "A" [ v "x" ]; atom "S" [ v "x"; v "y" ] ] in
  let all = Engine.Joiner.all body idx in
  check_int "unrestricted: one hom" 1 (List.length all);
  let slot = function "x" -> 0 | _ -> 1 in
  let homs delta =
    let atoms =
      Array.of_list (List.map (Engine.Index.compile_atom idx ~slot) body)
    in
    let benv = Array.make 2 (-1) and n = ref 0 in
    List.iter
      (fun f ->
        let key = Engine.Index.intern_fact idx f in
        if Engine.Index.catom_match_key atoms.(0) ~benv key then begin
          ignore
            (Engine.Joiner.search_compiled idx atoms ~benv ~on_candidate:ignore
               ~on_fail:ignore 1 2 (fun () ->
                 incr n;
                 false));
          Engine.Index.catom_clear atoms.(0) ~benv
        end)
      delta;
    check "bindings undone" true (Array.for_all (fun c -> c = -1) benv);
    !n
  in
  check_int "delta A(b): no hom" 0 (homs [ fact "A" [ "b" ] ]);
  check_int "delta A(a): one hom" 1 (homs [ fact "A" [ "a" ] ]);
  check_int "delta of another predicate: no hom" 0 (homs [ fact "S" [ "a"; "b" ] ])

let test_continue_unstored_delta () =
  (* [continue]'s delta must be keys of stored facts: a key the store
     does not hold is refused — one naming a symbol id never assigned,
     and one spelling an unstored fact over known symbols — and refusing
     it interns no symbol and leaves the store as it was *)
  let idx =
    Engine.Index.of_instance (Instance.of_facts [ fact "A" [ "a" ]; fact "C" [ "b" ] ])
  in
  let st = Engine.Index.symtab idx in
  let rules =
    [ { Engine.Saturate.body = [ atom "A" [ v "x" ] ]; head = [ atom "B" [ v "x" ] ] } ]
  in
  let syms = Engine.Symtab.size st in
  let pid_a = Engine.Symtab.find_pred_int st "A" in
  let cid_b = Engine.Symtab.find_int st (Term.Named "b") in
  List.iter
    (fun (name, key) ->
      check name true
        (match Engine.Saturate.continue rules ~index:idx ~level:0 [ key ] with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("unknown symbol id refused", [| pid_a; syms |]);
      ("unstored fact A(b) refused", [| pid_a; cid_b |]);
    ];
  check_int "no symbol interned" syms (Engine.Symtab.size st);
  check_int "store unchanged" 2 (Engine.Index.size idx);
  check "A(b) still absent" false (Engine.Index.mem (fact "A" [ "b" ]) idx)

let test_stats_reported () =
  let sigma =
    [ tgd [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ] ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "S" [ "a"; "b" ] ] in
  let r = Chase.run ~engine:`Indexed sigma db in
  match Chase.engine_result r with
  | None -> Alcotest.fail "indexed run must report an engine result"
  | Some s ->
      check_int "one trigger" 1 s.Engine.Saturate.triggers_fired;
      check "probes counted" true (Engine.Index.probes (Chase.index r) > 0);
      check_int "one fact at level 1" 1 (List.hd s.Engine.Saturate.facts_per_level);
      check "complete outcome" true (Chase.outcome r = Obs.Budget.Complete);
      check "joiner candidates filed" true
        (Obs.Metrics.count
           (Engine.Index.metrics (Chase.index r))
           "joiner.candidates"
        > 0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_levels_oblivious;
      prop_levels_restricted;
      prop_certain_agrees;
      prop_resaturate_restricted_noop;
      prop_resaturate_oblivious_full_noop;
      prop_budget_level_prefix;
      prop_joiner_matches_fold_homs;
      prop_answer_sets_agree;
      prop_enumerate_matches_generate_and_test;
      prop_enumerate_budget_prefix;
      prop_index_roundtrip;
      prop_compare_keys_is_fact_compare;
    ]

let () =
  Alcotest.run "engine"
    [
      ( "units",
        [
          Alcotest.test_case "index postings" `Quick test_index_postings;
          Alcotest.test_case "delta restriction" `Quick test_delta_restriction;
          Alcotest.test_case "continue refuses an unstored delta" `Quick
            test_continue_unstored_delta;
          Alcotest.test_case "saturation stats" `Quick test_stats_reported;
          Alcotest.test_case "enumerate corners" `Quick test_enumerate_corners;
        ] );
      ("properties", qcheck_tests);
    ]
