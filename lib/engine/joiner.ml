(** Index-aware backtracking homomorphism search; see the interface for
    the contract. Atom selection is cheapest-first by posting-list size,
    so selection costs O(arity) per pending atom instead of a candidate
    scan. *)

open Relational
open Relational.Term

type binding = Homomorphism.binding

let fold ?(injective = false) ?(init = VarMap.empty) ?delta atoms idx f acc =
  Obs.Probe.hit "engine.join";
  let m = Index.metrics idx in
  let c_candidates = Obs.Metrics.counter m "joiner.candidates" in
  let c_backtracks = Obs.Metrics.counter m "joiner.backtracks" in
  (* match the remaining atoms, cheapest first *)
  let rec search b pending acc =
    match pending with
    | [] -> f b acc
    | _ ->
        let best_i, best_a, _ =
          List.fold_left
            (fun (bi, ba, bc) (i, a) ->
              let c = Index.candidate_count idx a b in
              if c < bc then (i, a, c) else (bi, ba, bc))
            (-1, List.hd pending, max_int)
            (List.mapi (fun i a -> (i, a)) pending)
        in
        let rest = List.filteri (fun i _ -> i <> best_i) pending in
        (* interned candidate walk: same posting list, order and
           counter accounting as matching decoded tuples, minus the
           tuple materialization *)
        Index.fold_matches idx best_a b ~injective
          ~on_candidate:(fun () -> Obs.Metrics.incr c_candidates)
          ~on_fail:(fun () -> Obs.Metrics.incr c_backtracks)
          (fun b' acc -> search b' rest acc)
          acc
  in
  match (delta, atoms) with
  | None, _ | _, [] -> search init atoms acc
  | Some dfacts, pivot :: rest ->
      let p = Atom.pred pivot in
      List.fold_left
        (fun acc df ->
          if Fact.pred df <> p then acc
          else begin
            Obs.Metrics.incr c_candidates;
            match Homomorphism.match_atom ~injective init pivot (Fact.args df) with
            | Some b -> search b rest acc
            | None ->
                Obs.Metrics.incr c_backtracks;
                acc
          end)
        acc dfacts

(* Compiled satisfiability: [exists ~init:benv] without the probe hit, over a
   pre-compiled atom array, for the enumerator's per-answer witness
   checks. Node-for-node identical to [fold]+[Found] — same cheapest
   -first selection (first strictly-smaller wins), same pending order
   (in-place rotation keeps the unselected suffix in original relative
   order, as List.filteri did), same joiner.candidates/backtracks and
   index.probes accounting, same early exit on the first full match —
   but bindings live in [benv] and the recursion allocates nothing per
   node beyond one closure per call. The segment walked is
   [atoms.(lo..n)); both the rotation and the bindings are undone before
   returning. Counters resolve per call, exactly where [fold] resolves
   them, so a run registers [joiner.*] iff it performs a witness check. *)
let exists_compiled idx (atoms : Index.catom array) ~benv lo n =
  let m = Index.metrics idx in
  let c_candidates = Obs.Metrics.counter m "joiner.candidates" in
  let c_backtracks = Obs.Metrics.counter m "joiner.backtracks" in
  let on_candidate () = Obs.Metrics.incr c_candidates in
  let on_fail () = Obs.Metrics.incr c_backtracks in
  let rec sat lo =
    lo >= n
    ||
    let bi = ref lo and bc = ref max_int in
    for i = lo to n - 1 do
      let c = Index.catom_count idx atoms.(i) ~benv in
      if c < !bc then begin
        bi := i;
        bc := c
      end
    done;
    let sel = atoms.(!bi) in
    for j = !bi downto lo + 1 do
      atoms.(j) <- atoms.(j - 1)
    done;
    atoms.(lo) <- sel;
    let hit =
      Index.fold_catom idx sel ~benv ~on_candidate ~on_fail
        (fun lo -> sat lo)
        (lo + 1)
    in
    for j = lo to !bi - 1 do
      atoms.(j) <- atoms.(j + 1)
    done;
    atoms.(!bi) <- sel;
    hit
  in
  sat lo

exception Found of binding

let find ?injective ?init ?delta atoms idx =
  try
    fold ?injective ?init ?delta atoms idx (fun b _ -> raise (Found b)) ();
    None
  with Found b -> Some b

let exists ?injective ?init ?delta atoms idx =
  Option.is_some (find ?injective ?init ?delta atoms idx)

let all ?injective ?init ?delta atoms idx =
  List.rev (fold ?injective ?init ?delta atoms idx (fun b acc -> b :: acc) [])

(* ------------------------------------------------------------------ *)
(* Query evaluation over an index                                       *)
(* ------------------------------------------------------------------ *)

let entails_cq idx q tuple =
  List.length tuple = Cq.arity q
  &&
  let init =
    List.fold_left2
      (fun acc x c -> VarMap.add x c acc)
      VarMap.empty (Cq.answer q) tuple
  in
  exists ~init (Cq.atoms q) idx

let holds_cq idx q = exists (Cq.atoms q) idx

let answers_cq idx q =
  fold (Cq.atoms q) idx
    (fun b acc -> List.map (fun x -> VarMap.find x b) (Cq.answer q) :: acc)
    []
  |> List.sort_uniq Stdlib.compare

let entails_ucq idx u tuple =
  List.exists (fun q -> entails_cq idx q tuple) (Ucq.disjuncts u)

let holds_ucq idx u = List.exists (holds_cq idx) (Ucq.disjuncts u)

let answers_ucq idx u =
  List.concat_map (answers_cq idx) (Ucq.disjuncts u)
  |> List.sort_uniq Stdlib.compare
