(** Semi-naive saturation; see the interface for the level-equivalence
    argument. The driver keeps the naive chase's observable behaviour —
    trigger keys, per-level trigger sets, level assignment, policy and
    budget cutoffs — while enumerating each trigger exactly once, at
    the level where the last fact of its body appears.

    The loop runs on interned ids end to end. Each pass compiles every
    rule body to {!Index.catom}s, one array per pivot (the pivot first,
    the other body atoms after it in body order); the pivot is matched
    against the delta's interned keys and the rest is joined through
    {!Joiner.search_compiled} — the enumerator's machinery — into an int
    binding environment whose slots [0 .. nb-1] are the rule's body
    variables in sorted order and [nb ..] its existentials. A trigger's
    key is [[| rule; cid per body variable |]], the naive chase's key
    interned. Heads are grounded straight into fact keys and filed with
    {!Index.insert_key} together with their s-level; an [on_fire]
    firing grounds the body the same way, so a [Fact.t] is only built
    for an [on_pass] snapshot.

    Crash safety: the state at a clean pass boundary is fully described by
    the facts with their s-levels plus a handful of scalars — the delta of
    the next pass is exactly the facts of the last level, and a trigger is
    (re-)enumerable iff its body touches that delta. {!resume} rebuilds
    the index and delta from such a {!snapshot} and continues the loop;
    the continuation fires the same per-pass trigger sets as the
    uninterrupted run (facts agree up to null renaming, s-levels and
    outcome exactly). *)

open Relational
open Relational.Term

type policy = Oblivious | Restricted
type rule = { body : Atom.t list; head : Atom.t list }

type snapshot = {
  snap_facts : (Fact.t * int) list;  (** every fact with its s-level *)
  snap_level : int;
  snap_saturated : bool;
  snap_triggers_fired : int;
  snap_triggers_dismissed : int;
  snap_counters : (string * int) list;
}

type result = {
  index : Index.t;
  saturated : bool;
  max_level : int;
  outcome : Obs.Budget.outcome;
  triggers_fired : int;
  triggers_dismissed : int;
  facts_per_level : int list;
  span : Obs.Span.t;
}

type firing = {
  fire_index : Index.t;
  fire_rule : int;
  fire_key : int array;
  fire_body : int array list;
  fire_outs : (int array * bool) list;
}

(* An atom argument resolved against the rule's slots. *)
type arg = Cst of const | Slot of int

(* A body or head atom, grounded straight into a fact key. Its predicate
   and constant ids are interned at the first grounding — for a head,
   exactly when the fact-building path interned them; a body's symbols
   are interned already, since it matched stored facts — and cached
   from then on. *)
type gatom = {
  g_pred : string;
  mutable g_pid : int;  (* -1 until interned *)
  g_args : arg array;
  g_cids : int array;  (* interned constant per [Cst] position, or -1 *)
}

(* A rule with its slot assignment; [k_pivots]/[k_heads] are recompiled
   every pass, since a compiled atom resolves symbols once and the
   firing phase interns new ones. *)
type crule = {
  k_index : int;
  k_rule : rule;
  k_nbody : int;  (* body variables: slots [0 .. k_nbody - 1] *)
  k_nexist : int;  (* existentials: slots [k_nbody ..] *)
  k_slot : string -> int;
  k_body : gatom array;  (* for [on_fire] firings *)
  k_head : gatom array;
  k_key : int array;  (* trigger-key scratch *)
  mutable k_pivots : Index.catom array array;
  mutable k_heads : Index.catom array;
}

let compile_rule i r =
  let vars_of atoms =
    List.fold_left (fun acc a -> VarSet.union (Atom.vars a) acc) VarSet.empty atoms
  in
  let bv = vars_of r.body in
  let ev = VarSet.diff (vars_of r.head) bv in
  let slots = Hashtbl.create 8 in
  List.iteri (fun s x -> Hashtbl.replace slots x s) (VarSet.elements bv @ VarSet.elements ev);
  let slot x = Hashtbl.find slots x in
  let args a =
    Array.of_list
      (List.map (function Const c -> Cst c | Var x -> Slot (slot x)) (Atom.args a))
  in
  let gatom a =
    let g_args = args a in
    {
      g_pred = Atom.pred a;
      g_pid = -1;
      g_args;
      g_cids = Array.make (Array.length g_args) (-1);
    }
  in
  let nbody = VarSet.cardinal bv in
  {
    k_index = i;
    k_rule = r;
    k_nbody = nbody;
    k_nexist = VarSet.cardinal ev;
    k_slot = slot;
    k_body = Array.of_list (List.map gatom r.body);
    k_head = Array.of_list (List.map gatom r.head);
    k_key = Array.make (nbody + 1) i;
    k_pivots = [||];
    k_heads = [||];
  }

(* Compile [k] against the store as it is at the start of a pass: per
   body position (pivot), the body with that atom first and the others
   after it in body order — a predicate repeated in the body is pivoted
   once per occurrence, and the trigger-key table deduplicates the
   bindings — plus the head, for [Restricted]'s check. *)
let compile_pass idx k =
  let slot = k.k_slot in
  let body = Array.of_list (List.map (Index.compile_atom idx ~slot) k.k_rule.body) in
  let n = Array.length body in
  k.k_pivots <-
    Array.init n (fun j ->
        Array.init n (fun i ->
            if i = 0 then body.(j) else if i <= j then body.(i - 1) else body.(i)));
  k.k_heads <- Array.of_list (List.map (Index.compile_atom idx ~slot) k.k_rule.head)

(* The delta: interned keys with their s-levels, grouped by predicate id.
   Each group is its source list reversed, the order the fact-list
   grouping always had (it decides firing order, hence null ids). *)
let group_delta entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((key, _) as e) ->
      let pid = key.(0) in
      Hashtbl.replace tbl pid (e :: Option.value ~default:[] (Hashtbl.find_opt tbl pid)))
    entries;
  tbl

(* The resumable state threaded into the driver: either a fresh run over a
   database or the reconstruction of a checkpointed boundary. [i_delta]
   lists the last level's facts, as keys with their levels. *)
type init = {
  i_idx : Index.t;
  i_delta : (int array * int) list;
  i_level : int;
  i_saturated : bool;
  i_first_pass : bool;
  i_fired : int;
  i_dismissed : int;
  i_fpl : int list;  (* reversed: newest level first *)
}

let exec ~policy ~budget ~span ~on_pass ~on_fire init rules =
  let idx = init.i_idx in
  let st = Index.symtab idx in
  let m = Index.metrics idx in
  let rules = Array.of_list (List.mapi compile_rule rules) in
  let benv =
    Array.make
      (Array.fold_left (fun n k -> max n (k.k_nbody + k.k_nexist)) 1 rules)
      (-1)
  in
  (* existential scratch: the fresh null and its id once interned *)
  let nexist = Array.fold_left (fun n k -> max n k.k_nexist) 1 rules in
  let nulls = Array.make nexist (Named "") and null_ids = Array.make nexist (-1) in
  let fired = Index.Key_table.create 1024 in
  let triggers_fired = ref init.i_fired
  and triggers_dismissed = ref init.i_dismissed in
  let facts_per_level = ref init.i_fpl in
  let delta = ref init.i_delta in
  let first_pass = ref init.i_first_pass in
  let saturated = ref init.i_saturated in
  let level = ref init.i_level in
  let violation = ref None in
  let overflow () = !violation <> None in
  let take_snapshot () =
    let facts = ref [] in
    Index.iter_keys idx (fun key l -> facts := (Index.fact_of_key idx key, l) :: !facts);
    {
      snap_facts = List.rev !facts;
      snap_level = !level;
      snap_saturated = !saturated;
      snap_triggers_fired = !triggers_fired;
      snap_triggers_dismissed = !triggers_dismissed;
      snap_counters = Obs.Metrics.counters m;
    }
  in
  (* The fact key of atom [g] under the firing's bindings. Interning
     follows the fact-building order — predicate, then arguments left to
     right — so symbol ids come out as they always did. *)
  let ground_key k g =
    if g.g_pid < 0 then g.g_pid <- Symtab.intern_pred st g.g_pred;
    let args = g.g_args in
    let key = Array.make (Array.length args + 1) g.g_pid in
    for i = 0 to Array.length args - 1 do
      key.(i + 1) <-
        (match args.(i) with
        | Slot s when s < k.k_nbody -> benv.(s)
        | Slot s ->
            let e = s - k.k_nbody in
            if null_ids.(e) < 0 then null_ids.(e) <- Symtab.intern st nulls.(e);
            null_ids.(e)
        | Cst c ->
            if g.g_cids.(i) < 0 then g.g_cids.(i) <- Symtab.intern st c;
            g.g_cids.(i))
    done;
    key
  in
  while (not !saturated) && not (overflow ()) do
    Obs.Probe.hit "engine.pass";
    match Obs.Budget.check budget ~facts:(Index.size idx) ~level:(!level + 1) with
    | Some v -> violation := Some v
    | None ->
        let lspan = Obs.Span.enter span "level" in
        let pass_no = !level + 1 in
        let level_fired = ref 0 and level_dismissed = ref 0 in
        let delta_by_pid = group_delta !delta in
        let new_triggers = ref [] in
        (* [benv] holds a full body binding; [body_level] is the highest
           s-level among the body's facts *)
        let consider k body_level =
          let key = k.k_key in
          for s = 0 to k.k_nbody - 1 do
            key.(s + 1) <- benv.(s)
          done;
          if not (Index.Key_table.mem fired key) then begin
            let key = Array.copy key in
            let active =
              match policy with
              | Oblivious -> true
              | Restricted ->
                  Obs.Probe.hit "engine.join";
                  not
                    (Joiner.exists_compiled idx k.k_heads ~benv 0
                       (Array.length k.k_heads))
            in
            Index.Key_table.add fired key ();
            if active then new_triggers := (k, key, body_level) :: !new_triggers
            else begin
              incr triggers_dismissed;
              incr level_dismissed
            end
          end
        in
        Array.iter
          (fun k ->
            if k.k_rule.body = [] then begin
              (* bodiless rules have a single (empty) trigger; it exists
                 from the start, so only the first pass needs to consider
                 it *)
              if !first_pass then begin
                compile_pass idx k;
                consider k 0
              end
            end
            else begin
              compile_pass idx k;
              Array.iter
                (fun atoms ->
                  let pivot = atoms.(0) and n = Array.length atoms in
                  match Hashtbl.find_opt delta_by_pid (Index.catom_pid pivot) with
                  | None -> ()
                  | Some entries ->
                      Obs.Probe.hit "engine.join";
                      let c_candidates = Obs.Metrics.counter m "joiner.candidates" in
                      let c_backtracks = Obs.Metrics.counter m "joiner.backtracks" in
                      let on_candidate () = Obs.Metrics.incr c_candidates in
                      let on_fail () = Obs.Metrics.incr c_backtracks in
                      let pivot_level = ref 0 in
                      (* a full body match: its level is the highest of
                         the pivot's and the joined rows' *)
                      let matched () =
                        let bl = ref !pivot_level in
                        for i = 1 to n - 1 do
                          let li = Index.catom_level atoms.(i) in
                          if li > !bl then bl := li
                        done;
                        consider k !bl;
                        false
                      in
                      List.iter
                        (fun (key, l) ->
                          on_candidate ();
                          if Index.catom_match_key pivot ~benv key then begin
                            pivot_level := l;
                            if n = 1 then ignore (matched ())
                            else
                              ignore
                                (Joiner.search_compiled idx atoms ~benv ~on_candidate
                                   ~on_fail 1 n matched);
                            Index.catom_clear pivot ~benv
                          end
                          else on_fail ())
                        entries)
                k.k_pivots
            end)
          rules;
        first_pass := false;
        if !new_triggers = [] then saturated := true
        else begin
          incr level;
          let new_delta = ref [] in
          let new_count = ref 0 in
          List.iter
            (fun (k, key, body_level) ->
              if not (overflow ()) then begin
                incr triggers_fired;
                incr level_fired;
                for s = 0 to k.k_nbody - 1 do
                  benv.(s) <- key.(s + 1)
                done;
                for e = 0 to k.k_nexist - 1 do
                  nulls.(e) <- fresh_null ();
                  null_ids.(e) <- -1
                done;
                let land_head h =
                  let hk = ground_key k h in
                  let fresh = Index.insert_key idx hk ~level:(body_level + 1) in
                  if fresh then begin
                    incr new_count;
                    new_delta := (hk, body_level + 1) :: !new_delta
                  end;
                  (hk, fresh)
                in
                (match on_fire with
                | None ->
                    for h = 0 to Array.length k.k_head - 1 do
                      ignore (land_head k.k_head.(h))
                    done
                | Some cb ->
                    let outs = List.map land_head (Array.to_list k.k_head) in
                    cb
                      {
                        fire_index = idx;
                        fire_rule = k.k_index;
                        fire_key = key;
                        fire_body = List.map (ground_key k) (Array.to_list k.k_body);
                        fire_outs = outs;
                      });
                Array.fill benv 0 k.k_nbody (-1);
                (* the budget is re-checked trigger-atomically: the
                   overflowing trigger's whole head lands (matching the
                   naive loop), remaining triggers are skipped *)
                match Obs.Budget.check budget ~facts:(Index.size idx) ~level:!level with
                | Some v -> violation := Some v
                | None -> ()
              end)
            (List.rev !new_triggers);
          facts_per_level := !new_count :: !facts_per_level;
          delta := !new_delta
        end;
        Obs.Span.set lspan "level" (Obs.Json.Int pass_no);
        Obs.Span.set lspan "triggers_fired" (Obs.Json.Int !level_fired);
        Obs.Span.set lspan "triggers_dismissed" (Obs.Json.Int !level_dismissed);
        Obs.Span.set lspan "new_facts"
          (Obs.Json.Int
             (match !facts_per_level with
             | n :: _ when not !saturated -> n
             | _ -> 0));
        Obs.Span.exit lspan;
        (* Clean pass boundary (no mid-pass cutoff): the state is fully
           reconstructible — offer a checkpoint. *)
        (match on_pass with
        | Some cb when !violation = None ->
            cb ~level:!level ~saturated:!saturated take_snapshot
        | _ -> ())
  done;
  let outcome =
    match !violation with
    | Some v -> Obs.Budget.Partial v
    | None -> Obs.Budget.Complete
  in
  {
    index = idx;
    saturated = !saturated;
    max_level = !level;
    outcome;
    triggers_fired = !triggers_fired;
    triggers_dismissed = !triggers_dismissed;
    facts_per_level = List.rev !facts_per_level;
    span;
  }

let make_span obs =
  match obs with
  | Some parent -> Obs.Span.enter parent "saturate"
  | None -> Obs.Span.root "saturate"

(* Delta entries for stored fact keys: the keys with their current
   levels. *)
let stored_delta idx keys =
  List.map
    (fun key ->
      match Index.level_key idx key with
      | Some l -> (key, l)
      | None -> invalid_arg "Saturate.continue: a delta fact is not in the store")
    keys

let run ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs ?on_pass
    ?on_fire rules db =
  let span = make_span obs in
  let idx = Index.of_instance db in
  (* the database is the first delta, each relation in [Instance.iter]
     order — the order the store just filed it in *)
  let delta = ref [] in
  Index.iter_keys idx (fun key _ -> delta := (key, 0) :: !delta);
  let init =
    {
      i_idx = idx;
      i_delta = List.rev !delta;
      i_level = 0;
      i_saturated = false;
      i_first_pass = true;
      i_fired = 0;
      i_dismissed = 0;
      i_fpl = [];
    }
  in
  let r = exec ~policy ~budget ~span ~on_pass ~on_fire init rules in
  Obs.Span.exit span;
  r

(** [continue ... rules ~index ~level delta] — run the delta fixpoint
    over an {e existing} store: passes enumerate only triggers whose body
    touches [delta] (then the facts those produce, and so on) until
    saturation. The trigger-key table starts empty — sound whenever
    every previously fired trigger has no body fact in the transitive
    delta, which is the incremental-maintenance invariant (a fired
    trigger touching the delta was either never fired or was invalidated
    by the over-delete phase). Bodiless rules are never (re-)considered:
    their single trigger fired on the original first pass. *)
let continue ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs
    ?on_pass ?on_fire rules ~index ~level delta =
  let span = make_span obs in
  let init =
    {
      i_idx = index;
      i_delta = stored_delta index delta;
      i_level = level;
      i_saturated = false;
      i_first_pass = false;
      i_fired = 0;
      i_dismissed = 0;
      i_fpl = [];
    }
  in
  let r = exec ~policy ~budget ~span ~on_pass ~on_fire init rules in
  Obs.Span.exit span;
  r

let resume ?(policy = Oblivious) ?(budget = Obs.Budget.unlimited) ?obs
    ?on_pass ?on_fire rules (s : snapshot) =
  let span = make_span obs in
  let idx = Index.create () in
  List.iter (fun (f, l) -> ignore (Index.insert ~level:l f idx)) s.snap_facts;
  (* Re-seed the counters to the checkpointed totals, cancelling the
     increments of the rebuild itself, so a resumed run reports the same
     counter values as an uninterrupted one. *)
  let m = Index.metrics idx in
  let names =
    List.sort_uniq String.compare
      (List.map fst s.snap_counters @ List.map fst (Obs.Metrics.counters m))
  in
  List.iter
    (fun name ->
      let saved =
        match List.assoc_opt name s.snap_counters with Some v -> v | None -> 0
      in
      let c = Obs.Metrics.counter m name in
      Obs.Metrics.add c (saved - Obs.Metrics.value c))
    names;
  (* The semi-naive delta at a clean boundary is exactly the last level. *)
  let delta =
    List.filter_map
      (fun (f, l) -> if l = s.snap_level then Some (Index.intern_fact idx f, l) else None)
      s.snap_facts
  in
  let fpl =
    if s.snap_level = 0 then []
    else begin
      let counts = Array.make (s.snap_level + 1) 0 in
      List.iter
        (fun (_, l) ->
          if l >= 1 && l <= s.snap_level then counts.(l) <- counts.(l) + 1)
        s.snap_facts;
      (* internal representation is reversed (newest level first) *)
      List.init s.snap_level (fun i -> counts.(s.snap_level - i))
    end
  in
  let init =
    {
      i_idx = idx;
      i_delta = delta;
      i_level = s.snap_level;
      i_saturated = s.snap_saturated;
      i_first_pass = s.snap_level = 0;
      i_fired = s.snap_triggers_fired;
      i_dismissed = s.snap_triggers_dismissed;
      i_fpl = fpl;
    }
  in
  let r = exec ~policy ~budget ~span ~on_pass ~on_fire init rules in
  Obs.Span.exit span;
  r
