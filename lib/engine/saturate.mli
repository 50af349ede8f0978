(** Semi-naive saturation.

    A delta-driven fixpoint over existential rules (TGD-shaped
    body → head atom lists): level ℓ+1 enumerates only the triggers whose
    body uses at least one fact created at level ℓ — every older trigger
    was enumerated (and fired or dismissed) at the level where its last
    body fact appeared, so no level re-derives earlier levels. The
    per-level trigger sets coincide with those of the naive level-wise
    chase ([Tgds.Chase.run ~engine:`Naive]), so the s-levels of
    Lemma A.1 are preserved exactly: a fact derived at pass ℓ has s-level
    ℓ (its body contains a level ℓ−1 fact and nothing newer).

    Policies mirror the chase: [Oblivious] (the paper's §2 semantics)
    fires every trigger once; [Restricted] dismisses triggers whose head
    is already witnessed at collection time.

    Observability: the run is bounded by an {!Obs.Budget.t} (facts,
    levels, wall clock) and cut {e gracefully} — the partial result is
    returned with [outcome = Partial _] instead of looping forever on a
    non-terminating program. Each pass is recorded as a [level] span
    (triggers fired/dismissed, new facts) under [?obs] when given;
    low-level counters ([index.*], [joiner.*]) accumulate in the index's
    metrics registry ({!Index.metrics}). *)

open Relational

type policy = Oblivious | Restricted

(** A TGD-shaped rule: non-empty head; head variables absent from the
    body are existential and receive fresh labelled nulls at firing. *)
type rule = { body : Atom.t list; head : Atom.t list }

(** The engine state at a {e clean pass boundary} — a pass that completed
    without a budget violation. The facts with their s-levels determine
    everything else a continuation needs: the next pass's semi-naive delta
    is exactly the facts of [snap_level], and no trigger fired earlier can
    be re-enumerated from that delta (its body lies in levels
    ≤ [snap_level] − 1). The scalar fields carry the accumulated totals so
    a resumed run reports the same statistics as an uninterrupted one. *)
type snapshot = {
  snap_facts : (Fact.t * int) list;  (** every fact with its s-level *)
  snap_level : int;  (** last completed pass = highest s-level *)
  snap_saturated : bool;
  snap_triggers_fired : int;
  snap_triggers_dismissed : int;
  snap_counters : (string * int) list;  (** index metrics, sorted by name *)
}

type result = {
  index : Index.t;  (** the saturated store *)
  level_of : (Fact.t, int) Hashtbl.t;  (** s-level of every fact *)
  saturated : bool;  (** no unfired trigger remained *)
  max_level : int;
  outcome : Obs.Budget.outcome;  (** [Complete] iff no budget cut the run *)
  triggers_fired : int;
  triggers_dismissed : int;  (** [Restricted] head-already-satisfied *)
  facts_per_level : int list;  (** new facts at levels 1, 2, … *)
  span : Obs.Span.t;  (** the run's span (one [level] child per pass) *)
}

(** One trigger firing, reported to [?on_fire] as it happens — the hook
    the incremental-maintenance ledger records derivations with. Firings
    are reported in the deterministic sequential firing order. *)
type firing = {
  fire_rule : int;  (** index into the rule list *)
  fire_key : int * Term.const option list;
      (** the trigger's identity: rule index + body-variable image *)
  fire_body : Fact.t list;  (** grounded body, in body-atom order *)
  fire_outs : (Fact.t * bool) list;
      (** grounded head facts; [true] = fact was new to the store *)
}

(** [run ?policy ?budget ?obs ?on_pass rules db] — saturate [db] under
    [rules] until no new trigger exists or the budget cuts the run (the
    overflowing level may be cut short, as in the naive chase).

    [on_pass ~level ~saturated take] is called after every clean pass
    boundary (including the final, saturation-discovering pass); calling
    [take ()] materialises a {!snapshot} of the state at that boundary.
    Snapshot capture is pay-per-use — skipping the thunk costs nothing.

    [on_fire] is called once per fired trigger, in firing order, after
    the trigger's whole head has landed in the index. *)
val run :
  ?policy:policy ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(firing -> unit) ->
  rule list ->
  Instance.t ->
  result

(** [resume ?policy ?budget ?obs ?on_pass rules snapshot] — continue a
    saturation from a checkpointed boundary. The index is rebuilt from the
    snapshot's facts (metric counters re-seeded to the checkpointed
    totals), the delta is the facts of the last level, and the loop
    proceeds as if never interrupted: the continuation fires the same
    per-pass trigger sets, so the final result agrees with the
    uninterrupted run on facts (up to renaming of nulls invented after
    the boundary), s-levels, trigger totals, and outcome. [policy],
    [budget] and [rules] must match the original run. *)
val resume :
  ?policy:policy ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(firing -> unit) ->
  rule list ->
  snapshot ->
  result

(** [continue ?policy … rules ~index ~level_of ~level delta] —
    drive the semi-naive fixpoint over an {e existing, already saturated}
    store after [delta] has been added to it: pass [level + 1] enumerates
    the triggers whose body touches [delta], and the loop runs to
    saturation (or a budget cut). [index] and [level_of] are mutated in
    place; [delta]'s facts must already be present in both, carrying
    level [level].

    This is the incremental-maintenance entry point. Its trigger-key
    table starts empty, which is sound iff no previously fired trigger
    has a body fact in the transitive delta — exactly the invariant the
    maintenance layer establishes (new facts were never seen before;
    re-inserted facts had their dependent firings invalidated by the
    over-delete phase). It is {e not} sound to [continue] after removing
    facts without invalidating their dependents. *)
val continue :
  ?policy:policy ->
  ?budget:Obs.Budget.t ->
  ?obs:Obs.Span.t ->
  ?on_pass:(level:int -> saturated:bool -> (unit -> snapshot) -> unit) ->
  ?on_fire:(firing -> unit) ->
  rule list ->
  index:Index.t ->
  level_of:(Fact.t, int) Hashtbl.t ->
  level:int ->
  Fact.t list ->
  result
