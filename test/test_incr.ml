(* lib/incr: incremental chase maintenance.

   The load-bearing property is differential: a maintained store
   subjected to a random interleaved insert/delete log must hold exactly
   the instance — facts *and* s-levels — that a fresh oblivious chase of
   the final base database produces, up to null renaming. The generator
   pool here is weakly acyclic (unlike [Generators.tgd_pool], whose
   A/S loop never terminates), so every store saturates without a level
   cut and maintenance is defined.

   Unit tests pin the corner cases the property could miss with small
   sample sizes: deleting a fact that stays derivable, a delete
   cascading through existential nulls, checkpoint canonicity, and the
   [Engine.Index.remove] primitive. *)

open Relational
module Tgd = Tgds.Tgd

let v = Term.var
let atom = Generators.atom
let fact = Generators.fact
let tgd body head = Tgd.make ~body ~head

(* ------------------------------------------------------------------ *)
(* A weakly-acyclic guarded pool (terminating oblivious chase)          *)
(* ------------------------------------------------------------------ *)

let wa_pool =
  [|
    (* existential *)
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    (* flip *)
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "T" [ v "y"; v "x" ] ];
    (* frontier projection *)
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "x" ] ];
    (* existential chain off B *)
    tgd [ atom "B" [ v "x" ] ] [ atom "U" [ v "x"; v "z" ] ];
    tgd [ atom "U" [ v "x"; v "z" ] ] [ atom "V" [ v "z" ] ];
    (* guarded join *)
    tgd [ atom "T" [ v "x"; v "y" ]; atom "S" [ v "y"; v "x" ] ] [ atom "B" [ v "y" ] ];
  |]

let gen_sigma =
  QCheck.Gen.(
    map
      (List.map (Array.get wa_pool))
      (list_size (int_range 1 5) (int_range 0 (Array.length wa_pool - 1))))

(* Base facts over A/B/S/T and the constants {a,b,c} — the same
   distribution mutations draw from, so logs revisit earlier facts. *)
let gen_base_fact =
  QCheck.Gen.(
    let gc = map (List.nth [ "a"; "b"; "c" ]) (int_range 0 2) in
    let* p = int_range 0 3 in
    match p with
    | 0 ->
        let* a = gc in
        return (fact "A" [ a ])
    | 1 ->
        let* a = gc in
        return (fact "B" [ a ])
    | 2 ->
        let* a = gc and* b = gc in
        return (fact "S" [ a; b ])
    | _ ->
        let* a = gc and* b = gc in
        return (fact "T" [ a; b ]))

let gen_db =
  QCheck.Gen.(map Instance.of_facts (list_size (int_range 1 5) gen_base_fact))

let gen_log =
  QCheck.Gen.(list_size (int_range 0 8) (pair bool gen_base_fact))

let print_case (sigma, db, ops) =
  Fmt.str "Σ=%a D=%a log=%a" (Fmt.list Tgd.pp) sigma Instance.pp db
    (Fmt.list (Fmt.pair Fmt.bool Fact.pp))
    ops

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(triple gen_sigma gen_db gen_log)

(* ------------------------------------------------------------------ *)
(* Differential properties                                              *)
(* ------------------------------------------------------------------ *)

let apply_log store ops =
  List.iter
    (fun (add, f) ->
      ignore (Incr.apply store (if add then Incr.Insert f else Incr.Delete f)))
    ops

let replay_base db ops =
  List.fold_left
    (fun b (add, f) ->
      if add then Instance.add_fact f b
      else Instance.diff b (Instance.of_facts [ f ]))
    db ops

let store_facts_levels store =
  (Incr.checkpoint store).Tgds.Chase.snap_facts

(* maintained store ≡ fresh chase of the replayed base, facts and
   s-levels both, modulo a bijection on null ids *)
let prop_differential (sigma, db, ops) =
  Term.reset_nulls ();
  let store = Incr.create sigma db in
  apply_log store ops;
  let final = replay_base db ops in
  Term.reset_nulls ();
  let fresh = Tgds.Chase.run ~policy:Tgds.Chase.Oblivious sigma final in
  Instance.equal (Incr.base store) final
  && Generators.equal_upto_nulls (store_facts_levels store)
       (Generators.facts_levels fresh)

(* the creation engine is invisible: a store created under the indexed
   engine and one rebuilt from the final checkpoint of a run under the
   retired multicore engine's [`Parallel] tag — with the checkpoint's
   engine field written as that engine wrote it, "parallel" — hold
   byte-identical instances, null ids included, after the same log *)
let prop_engine_parity (sigma, db, ops) =
  Term.reset_nulls ();
  let created = Incr.create ~engine:`Indexed sigma db in
  apply_log created ops;
  Term.reset_nulls ();
  let last = ref None in
  ignore
    (Tgds.Chase.run ~engine:(`Parallel 2) ~policy:Tgds.Chase.Oblivious
       ~on_pass:(fun ~level:_ ~saturated:_ take -> last := Some (take ()))
       sigma db);
  let legacy_json =
    match Resil.Checkpoint.to_json (Option.get !last) with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "engine" then (k, Obs.Json.String "parallel") else (k, v))
             fields)
    | j -> j
  in
  match Resil.Checkpoint.of_json legacy_json with
  | Error e -> QCheck.Test.fail_reportf "legacy checkpoint unreadable: %s" e
  | Ok snap ->
      Term.reset_nulls ();
      let rebuilt = Incr.of_checkpoint sigma snap in
      apply_log rebuilt ops;
      Instance.equal (Incr.instance created) (Incr.instance rebuilt)

(* a maintained checkpoint resumes as a no-op continuation holding the
   same instance *)
let prop_checkpoint (sigma, db, ops) =
  Term.reset_nulls ();
  let store = Incr.create sigma db in
  apply_log store ops;
  let snap = Incr.checkpoint store in
  let r = Tgds.Chase.resume sigma snap in
  Tgds.Chase.saturated r
  && Instance.equal (Tgds.Chase.instance r) (Incr.instance store)

(* the crash-recovery invariant behind the WAL: capture an exact image at
   any cut of the log, rebuild from it, replay the suffix — the result
   must equal the uninterrupted run *exactly* (facts with the same null
   ids in the same storage order, s-levels, ledger liveness, counters),
   not merely up to renaming. [Incr.image] equality covers storage order,
   levels, the live ledger, the null counter, and the metrics in one
   comparison; instance equality and per-fact support counts pin the
   observable side independently. *)
let prop_image_split (sigma, db, ops, cut) =
  Term.reset_nulls ();
  let full = Incr.create sigma db in
  apply_log full ops;
  let full_image = Incr.image full in
  Term.reset_nulls ();
  let k = cut mod (List.length ops + 1) in
  let prefix = List.filteri (fun i _ -> i < k) ops in
  let suffix = List.filteri (fun i _ -> i >= k) ops in
  let store = Incr.create sigma db in
  apply_log store prefix;
  let rebuilt = Incr.of_image sigma (Incr.image store) in
  apply_log rebuilt suffix;
  Incr.image rebuilt = full_image
  && Instance.equal (Incr.instance rebuilt) (Incr.instance full)
  && List.for_all
       (fun (f, _) -> Incr.support_count rebuilt f = Incr.support_count full f)
       full_image.Incr.im_facts

let arb_split_case =
  QCheck.make
    ~print:(fun (sigma, db, ops, cut) ->
      Fmt.str "%s cut=%d" (print_case (sigma, db, ops)) cut)
    QCheck.Gen.(quad gen_sigma gen_db gen_log (int_range 0 1000))

let qcheck ?(count = 200) name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb_case prop)

(* ------------------------------------------------------------------ *)
(* Corner units                                                         *)
(* ------------------------------------------------------------------ *)

(* deleting a fact that is also derived keeps it in the store (DRed
   phase 2 re-derives it) while removing it from the base *)
let test_delete_still_derivable () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ]; fact "B" [ "a" ] ] in
  let store = Incr.create sigma db in
  let e = Incr.delete store (fact "B" [ "a" ]) in
  Alcotest.(check bool) "not a no-op" false e.Incr.e_noop;
  Alcotest.(check int) "nothing leaves the store" 0 e.Incr.e_deleted;
  Alcotest.(check bool)
    "B(a) still present" true
    (Instance.mem (fact "B" [ "a" ]) (Incr.instance store));
  Alcotest.(check int) "base shrank" 1 (Incr.base_size store);
  Alcotest.(check int) "store unchanged" 2 (Incr.size store)

(* a delete whose cascade runs through invented nulls: retracting the
   base fact must garbage-collect the whole existential subtree *)
let test_delete_null_cascade () =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "y" ] ];
    ]
  in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let store = Incr.create sigma db in
  Alcotest.(check int) "chased to 3 facts" 3 (Incr.size store);
  let e = Incr.delete store (fact "A" [ "a" ]) in
  Alcotest.(check int) "overdeleted the subtree" 3 e.Incr.e_overdeleted;
  Alcotest.(check int) "nothing re-derivable" 0 e.Incr.e_rederived;
  Alcotest.(check int) "all three gone" 3 e.Incr.e_deleted;
  Alcotest.(check int) "store empty" 0 (Incr.size store)

(* inserting a fact the chase already invented-around: the delta fixpoint
   only fires what the new fact newly enables *)
let test_insert_absorbed () =
  let sigma = [ tgd [ atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ] ] in
  let db = Instance.of_facts [ fact "A" [ "a" ] ] in
  let store = Incr.create sigma db in
  let e = Incr.insert store (fact "B" [ "a" ]) in
  Alcotest.(check bool) "not a no-op (base grew)" false e.Incr.e_noop;
  Alcotest.(check int) "no new facts" 0 e.Incr.e_repaired;
  Alcotest.(check int) "base now 2" 2 (Incr.base_size store);
  let e2 = Incr.insert store (fact "B" [ "a" ]) in
  Alcotest.(check bool) "second time is a no-op" true e2.Incr.e_noop

(* the maintained checkpoint is canonical: identical levels to a fresh
   chase of the same final base, and [of_checkpoint] round-trips *)
let test_checkpoint_canonical () =
  let sigma =
    [
      tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
      tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "B" [ v "y" ] ];
    ]
  in
  Term.reset_nulls ();
  let store =
    Incr.create sigma (Instance.of_facts [ fact "A" [ "a" ]; fact "A" [ "b" ] ])
  in
  ignore (Incr.insert store (fact "A" [ "c" ]));
  ignore (Incr.delete store (fact "A" [ "a" ]));
  let snap = Incr.checkpoint store in
  Term.reset_nulls ();
  let fresh =
    Tgds.Chase.run ~policy:Tgds.Chase.Oblivious sigma
      (Instance.of_facts [ fact "A" [ "b" ]; fact "A" [ "c" ] ])
  in
  Alcotest.(check bool)
    "levels match a fresh chase" true
    (Generators.equal_upto_nulls snap.Tgds.Chase.snap_facts
       (Generators.facts_levels fresh));
  let store2 = Incr.of_checkpoint sigma snap in
  Alcotest.(check bool)
    "of_checkpoint rebuilds the store" true
    (Generators.equal_upto_nulls
       (store_facts_levels store2)
       snap.Tgds.Chase.snap_facts);
  let e = Incr.delete store2 (fact "A" [ "b" ]) in
  Alcotest.(check bool) "rebuilt store accepts mutations" false e.Incr.e_noop

(* the Index.remove primitive: membership, per-position buckets and the
   index.removes counter *)
let test_index_remove () =
  let idx = Engine.Index.create () in
  let f = fact "S" [ "a"; "b" ] in
  Alcotest.(check bool) "insert fresh" true (Engine.Index.insert f idx);
  Alcotest.(check bool) "remove present" true (Engine.Index.remove f idx);
  Alcotest.(check bool) "membership gone" false (Engine.Index.mem f idx);
  Alcotest.(check bool) "remove absent" false (Engine.Index.remove f idx);
  Alcotest.(check bool) "re-insert fresh again" true (Engine.Index.insert f idx);
  Alcotest.(check int)
    "index.removes counted once" 1
    (Obs.Metrics.count (Engine.Index.metrics idx) "index.removes")

(* unsaturated stores refuse mutations instead of repairing nonsense *)
let test_unsaturated_refused () =
  let sigma =
    [ tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "S" [ v "y"; v "z" ] ] ]
  in
  let store =
    Incr.create ~max_level:2 sigma (Instance.of_facts [ fact "S" [ "a"; "b" ] ])
  in
  Alcotest.(check bool) "store unsaturated" false (Incr.saturated store);
  Alcotest.check_raises "insert refused"
    (Invalid_argument "Incr: store is not saturated") (fun () ->
      ignore (Incr.insert store (fact "S" [ "b"; "a" ])))

let () =
  Alcotest.run "incr"
    [
      ( "differential",
        [
          qcheck "maintained store = fresh chase of final base"
            prop_differential;
          qcheck ~count:100 "indexed and parallel creation agree"
            prop_engine_parity;
          qcheck ~count:100 "maintained checkpoint resumes as a no-op"
            prop_checkpoint;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:200
               ~name:"image at any cut + suffix replay = uninterrupted run"
               arb_split_case prop_image_split);
        ] );
      ( "corners",
        [
          Alcotest.test_case "delete of a still-derivable fact" `Quick
            test_delete_still_derivable;
          Alcotest.test_case "delete cascading through nulls" `Quick
            test_delete_null_cascade;
          Alcotest.test_case "insert absorbed by the chase" `Quick
            test_insert_absorbed;
          Alcotest.test_case "checkpoint is canonical" `Quick
            test_checkpoint_canonical;
          Alcotest.test_case "Index.remove round-trip" `Quick test_index_remove;
          Alcotest.test_case "unsaturated store refuses mutations" `Quick
            test_unsaturated_refused;
        ] );
    ]
