(* Shared qcheck generators for the property-test suites: random guarded
   TGD programs over the schema {A/1, B/1, S/2, T/2}, random small
   instances, and random (U)CQs. Extracted from test_engine/test_tgds so
   every suite draws from the same distributions. *)

open Relational
open Relational.Term
module Tgd = Tgds.Tgd

let v = Term.var
let atom p args = Atom.make p args
let fact p args = Fact.make p (List.map (fun s -> Named s) args)
let tgd body head = Tgd.make ~body ~head
let bool_q atoms = Ucq.of_cq (Cq.make atoms)

(* ------------------------------------------------------------------ *)
(* Guarded TGD pools                                                    *)
(* ------------------------------------------------------------------ *)

let tgd_pool =
  [|
    (* linear, existential *)
    tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ];
    (* linear, frontier only *)
    tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ];
    (* guarded join *)
    tgd [ atom "S" [ v "x"; v "y" ]; atom "A" [ v "x" ] ] [ atom "B" [ v "x" ] ];
    (* existential chain *)
    tgd [ atom "B" [ v "x" ] ] [ atom "T" [ v "x"; v "z" ] ];
    (* reflexive guard *)
    tgd [ atom "S" [ v "x"; v "x" ] ] [ atom "B" [ v "x" ] ];
    (* two-atom guarded body across predicates *)
    tgd [ atom "T" [ v "x"; v "y" ]; atom "B" [ v "x" ] ] [ atom "S" [ v "y"; v "x" ] ];
    (* multi-atom head *)
    tgd [ atom "T" [ v "x"; v "y" ] ] [ atom "A" [ v "x" ]; atom "B" [ v "y" ] ];
  |]

(* The existential-free members of [tgd_pool]: their oblivious chase
   always terminates, and re-saturating its result is a strict no-op. *)
let full_pool = Array.of_list (List.filter Tgd.is_full (Array.to_list tgd_pool))

let gen_from_pool pool =
  QCheck.Gen.(
    map
      (List.map (Array.get pool))
      (list_size (int_range 1 4) (int_range 0 (Array.length pool - 1))))

let gen_sigma = gen_from_pool tgd_pool
let gen_full_sigma = gen_from_pool full_pool

(* ------------------------------------------------------------------ *)
(* Instances                                                            *)
(* ------------------------------------------------------------------ *)

let gen_db =
  QCheck.Gen.(
    let gc = map (List.nth [ "a"; "b"; "c" ]) (int_range 0 2) in
    let gen_fact =
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
          return (fact "T" [ a; b ])
    in
    map Instance.of_facts (list_size (int_range 1 5) gen_fact))

let print_sigma_db (s, db) =
  Fmt.str "Σ=%a D=%a" (Fmt.list Tgd.pp) s Instance.pp db

let arb_sigma_db =
  QCheck.make ~print:print_sigma_db QCheck.Gen.(pair gen_sigma gen_db)

let arb_full_sigma_db =
  QCheck.make ~print:print_sigma_db QCheck.Gen.(pair gen_full_sigma gen_db)

(* ------------------------------------------------------------------ *)
(* Resilience: checkpoints and fault plans                              *)
(* ------------------------------------------------------------------ *)

let engine_to_string : Tgds.Chase.engine -> string = function
  | `Indexed -> "indexed"
  | `Naive -> "naive"

let gen_engine : Tgds.Chase.engine QCheck.Gen.t =
  QCheck.Gen.map (fun b -> if b then `Indexed else `Naive) QCheck.Gen.bool

let gen_policy =
  QCheck.Gen.map
    (fun b -> if b then Tgds.Chase.Oblivious else Tgds.Chase.Restricted)
    QCheck.Gen.bool

(* Budgets small enough that even the non-terminating pool programs stop
   quickly, but large enough for several clean pass boundaries. *)
let resil_budget () = Obs.Budget.create ~max_facts:60 ~max_levels:6 ()

(* The stats report is deterministic up to its timing tail; comparisons
   cut at the histograms key (which also drops the span). *)
let cut_at_histograms s =
  let marker = {|,"histograms":|} in
  let n = String.length s and m = String.length marker in
  let rec find i =
    if i + m > n then s
    else if String.sub s i m = marker then String.sub s 0 i
    else find (i + 1)
  in
  find 0

(* Every clean-boundary snapshot of one chase run (nulls reset first, so
   reruns of the same inputs are reproducible). *)
let chase_snapshots ~engine ~policy sigma db =
  Term.reset_nulls ();
  let snaps = ref [] in
  let _ =
    Tgds.Chase.run ~engine ~policy ~budget:(resil_budget ())
      ~on_pass:(fun ~level:_ ~saturated:_ take -> snaps := take () :: !snaps)
      sigma db
  in
  List.rev !snaps

(* ------------------------------------------------------------------ *)
(* Result comparison up to null renaming                                *)
(* ------------------------------------------------------------------ *)

module IntMap = Map.Make (Int)

let facts_levels ?(upto = max_int) r =
  Instance.facts (Tgds.Chase.instance r)
  |> List.filter_map (fun f ->
         match Option.value ~default:0 (Tgds.Chase.level r f) with
         | l when l <= upto -> Some (f, l)
         | _ -> None)

(* A null-blind sort key: fast rejection and good candidate locality for
   the backtracking matcher below. *)
let skeleton (f, l) =
  ( l,
    Fact.pred f,
    List.map (function Null _ -> Null 0 | c -> c) (Fact.args f) )

let match_args map rmap args1 args2 =
  let rec go map rmap a1 a2 =
    match (a1, a2) with
    | [], [] -> Some (map, rmap)
    | c1 :: r1, c2 :: r2 -> (
        match (c1, c2) with
        | Named s1, Named s2 ->
            if String.equal s1 s2 then go map rmap r1 r2 else None
        | Null i, Null j -> (
            match (IntMap.find_opt i map, IntMap.find_opt j rmap) with
            | Some j', Some i' ->
                if j' = j && i' = i then go map rmap r1 r2 else None
            | None, None -> go (IntMap.add i j map) (IntMap.add j i rmap) r1 r2
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  go map rmap args1 args2

(* Multiset equality of (fact, level) lists modulo a bijection on null
   ids (backtracking; instances here are small). *)
let equal_upto_nulls l1 l2 =
  let sk = List.sort Stdlib.compare (List.map skeleton l1) in
  List.length l1 = List.length l2
  && sk = List.sort Stdlib.compare (List.map skeleton l2)
  &&
  let l1 =
    List.sort (fun a b -> Stdlib.compare (skeleton a) (skeleton b)) l1
  in
  let rec assign map rmap l1 l2 =
    match l1 with
    | [] -> true
    | (f1, lv1) :: rest ->
        let rec try_cands before = function
          | [] -> false
          | (f2, lv2) :: after ->
              (lv1 = lv2
              && Fact.pred f1 = Fact.pred f2
              &&
              match match_args map rmap (Fact.args f1) (Fact.args f2) with
              | Some (map', rmap') ->
                  assign map' rmap' rest (List.rev_append before after)
              | None -> false)
              || try_cands ((f2, lv2) :: before) after
        in
        try_cands [] l2
  in
  assign IntMap.empty IntMap.empty l1 l2

(* Equivalence of two chase results up to renaming of invented nulls.
   Caveat: a [Partial Facts] cut lands mid-pass, where the set of
   triggers fired before the cut depends on enumeration order, so for
   those runs only the levels before the final, truncated pass are
   compared; runs ending at a clean boundary must agree in full. *)
let results_equivalent full r =
  Tgds.Chase.saturated full = Tgds.Chase.saturated r
  && Tgds.Chase.max_level full = Tgds.Chase.max_level r
  && Tgds.Chase.outcome full = Tgds.Chase.outcome r
  &&
  match Tgds.Chase.outcome full with
  | Obs.Budget.Partial (Obs.Budget.Facts _) ->
      let upto = Tgds.Chase.max_level full - 1 in
      equal_upto_nulls (facts_levels ~upto full) (facts_levels ~upto r)
  | _ -> equal_upto_nulls (facts_levels full) (facts_levels r)

(* A checkpoint drawn from a random boundary of a random chase. The first
   pass of these budgets is always a clean boundary, so [snaps] is never
   empty. *)
let gen_checkpoint =
  QCheck.Gen.(
    let* sigma = gen_sigma
    and* db = gen_db
    and* engine = gen_engine
    and* policy = gen_policy
    and* pick = int_range 0 1000 in
    let snaps = chase_snapshots ~engine ~policy sigma db in
    return (List.nth snaps (pick mod List.length snaps)))

let print_checkpoint s = Obs.Json.to_string (Resil.Checkpoint.to_json s)
let arb_checkpoint = QCheck.make ~print:print_checkpoint gen_checkpoint

(* Fault plans mixing all three trigger axes; [After_ms] is meant to run
   under an injected clock that advances ≥ 1s per probe hit, so every
   generated deadline fires on its first or second hit. *)
let gen_fault_trigger =
  QCheck.Gen.(
    let* k = int_range 0 2 in
    match k with
    | 0 -> map (fun n -> Resil.Fault.At_hit (1 + n)) (int_range 0 400)
    | 1 ->
        let* p =
          oneofl [ "engine.pass"; "engine.insert"; "engine.join"; "chase.pass" ]
        and* n = int_range 1 40 in
        return (Resil.Fault.At_point (p, n))
    | _ ->
        map (fun n -> Resil.Fault.After_ms (float_of_int (500 * n))) (int_range 0 4))

let gen_fault_plan = QCheck.Gen.(list_size (int_range 0 3) gen_fault_trigger)

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

(* Fixed Boolean probes over the pool's schema. *)
let queries =
  [
    bool_q [ atom "A" [ v "u" ] ];
    bool_q [ atom "B" [ v "u" ] ];
    bool_q [ atom "S" [ v "u"; v "w" ] ];
    bool_q [ atom "T" [ v "u"; v "w" ] ];
    bool_q [ atom "S" [ v "u"; v "w" ]; atom "B" [ v "u" ] ];
    bool_q [ atom "S" [ v "u"; v "w" ]; atom "T" [ v "w"; v "z" ] ];
  ]

let gen_query_atom =
  QCheck.Gen.(
    let vars = [ "u"; "w"; "t" ] in
    let gv = map (List.nth vars) (int_range 0 2) in
    let* p = int_range 0 3 in
    match p with
    | 0 ->
        let* a = gv in
        return (atom "A" [ v a ])
    | 1 ->
        let* a = gv in
        return (atom "B" [ v a ])
    | 2 ->
        let* a = gv and* b = gv in
        return (atom "S" [ v a; v b ])
    | _ ->
        let* a = gv and* b = gv in
        return (atom "T" [ v a; v b ]))

(* Random CQ with 0–2 answer variables drawn from the atoms' variables. *)
let gen_cq =
  QCheck.Gen.(
    let* atoms = list_size (int_range 1 3) gen_query_atom in
    let* n_ans = int_range 0 2 in
    let present =
      List.filter
        (fun x -> List.exists (fun a -> VarSet.mem x (Atom.vars a)) atoms)
        [ "u"; "w"; "t" ]
    in
    let answer = List.filteri (fun i _ -> i < n_ans) present in
    return (Cq.make ~answer atoms))

(* Random UCQ of arity 0–3: one tuple of distinct answer variables shared
   by 1–2 disjuncts. Answer variables need not occur in a disjunct's
   atoms — the free-variable case of answer enumeration, where they range
   over the whole active domain. *)
let gen_ucq =
  QCheck.Gen.(
    let* arity = int_range 0 3 in
    let answer = List.filteri (fun i _ -> i < arity) [ "u"; "w"; "t" ] in
    let gen_disjunct =
      map
        (fun atoms -> Cq.make ~answer atoms)
        (list_size (int_range 1 3) gen_query_atom)
    in
    map Ucq.make (list_size (int_range 1 2) gen_disjunct))

(* ------------------------------------------------------------------ *)
(* Linear fragments (used by the rewriting/ground-closure suites)       *)
(* ------------------------------------------------------------------ *)

let gen_linear_sigma =
  QCheck.Gen.(
    let gen_tgd =
      let* b = int_range 0 2 in
      match b with
      | 0 -> return (tgd [ atom "A" [ v "x" ] ] [ atom "S" [ v "x"; v "y" ] ])
      | 1 -> return (tgd [ atom "S" [ v "x"; v "y" ] ] [ atom "T" [ v "y"; v "z" ] ])
      | _ -> return (tgd [ atom "T" [ v "x"; v "y" ] ] [ atom "A" [ v "y" ] ])
    in
    list_size (int_range 1 3) gen_tgd)

let gen_small_db =
  QCheck.Gen.(
    let consts = [ "a"; "b" ] in
    let gc = map (List.nth consts) (int_range 0 1) in
    let gen_fact =
      let* p = int_range 0 2 in
      match p with
      | 0 ->
          let* a = gc in
          return (fact "A" [ a ])
      | 1 ->
          let* a = gc and* b = gc in
          return (fact "S" [ a; b ])
      | _ ->
          let* a = gc and* b = gc in
          return (fact "T" [ a; b ])
    in
    map Instance.of_facts (list_size (int_range 1 4) gen_fact))

let gen_small_q =
  QCheck.Gen.(
    map (fun atoms -> bool_q atoms) (list_size (int_range 1 3) gen_query_atom))
