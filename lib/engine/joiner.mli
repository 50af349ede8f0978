(** Index-aware homomorphism matching.

    Generalizes {!Relational.Homomorphism.fold_homs} to run against an
    {!Index} instead of a plain instance: at every step of the
    backtracking search the next atom is the one with the fewest
    candidate tuples, where candidate counts come from posting-list sizes
    (leapfrog-style cheapest-first ordering) rather than from scanning
    whole relations.

    The compiled form ({!search_compiled}) runs the same search over
    {!Index.catom}s and an int binding environment: the enumerator's
    witness checks and every join of the chase. {!Saturate} matches each
    body atom in turn against the last level's facts
    ({!Index.catom_match_key}) and joins the rest of the body here, so
    it enumerates exactly the triggers that involve a fact of that
    level.

    Every search files [joiner.candidates] (candidate tuples examined)
    and [joiner.backtracks] (failed positional matches) into the metrics
    registry of the index it runs against ({!Index.metrics}). *)

open Relational
open Relational.Term

type binding = Homomorphism.binding

(** [fold ?injective ?init atoms idx f acc] — fold [f] over
    every homomorphism from [atoms] into the index extending [init].
    Every call hits the ["engine.join"] {!Obs.Probe} at entry. *)
val fold :
  ?injective:bool ->
  ?init:binding ->
  Atom.t list ->
  Index.t ->
  (binding -> 'a -> 'a) ->
  'a ->
  'a

(** First homomorphism, if any. *)
val find :
  ?injective:bool -> ?init:binding ->
  Atom.t list -> Index.t -> binding option

val exists :
  ?injective:bool -> ?init:binding ->
  Atom.t list -> Index.t -> bool

(** [exists_compiled idx atoms ~benv lo n] — {!exists} over
    the compiled segment [atoms.(lo..n)) ] with the bindings of [benv]
    as the initial assignment: is there an extension matching every
    atom of the segment? Node-for-node identical to the uncompiled
    search (selection, pending order, [joiner.*] and [index.probes]
    accounting), but allocation-free on the candidate path. [atoms] is
    reordered in place during the search and restored before returning;
    [benv] is unchanged on return. Non-injective, no delta, no
    ["engine.join"] probe — the enumerator's witness-check shape. *)
val exists_compiled : Index.t -> Index.catom array -> benv:int array -> int -> int -> bool

(** [search_compiled idx atoms ~benv ~on_candidate ~on_fail lo n f] —
    the search behind {!exists_compiled}, calling [f ()] at every full
    match of the segment [atoms.(lo..n)) ] (bindings visible in [benv])
    until it returns [true], which is returned. Candidates and failed
    matches are reported through [on_candidate]/[on_fail] (the chase
    files them as [joiner.*]); [atoms] and [benv] are restored before
    returning. Node-for-node the uncompiled {!fold}. *)
val search_compiled :
  Index.t ->
  Index.catom array ->
  benv:int array ->
  on_candidate:(unit -> unit) ->
  on_fail:(unit -> unit) ->
  int ->
  int ->
  (unit -> bool) ->
  bool

(** All homomorphisms (exponentially many in general). *)
val all :
  ?injective:bool -> ?init:binding ->
  Atom.t list -> Index.t -> binding list

(* ------------------------------------------------------------------ *)
(* Query evaluation over an index                                       *)
(* ------------------------------------------------------------------ *)

(** [entails_cq idx q c̄] — is [c̄ ∈ q(I)] for the indexed instance [I]?
    (the candidate answer pre-binds the answer variables, as in §2). *)
val entails_cq : Index.t -> Cq.t -> const list -> bool

(** Boolean entailment [I ⊨ q]. *)
val holds_cq : Index.t -> Cq.t -> bool

(** [answers_cq idx q] — the evaluation [q(I)], deduplicated. *)
val answers_cq : Index.t -> Cq.t -> const list list

(** UCQ variants: some disjunct entails. *)
val entails_ucq : Index.t -> Ucq.t -> const list -> bool

val holds_ucq : Index.t -> Ucq.t -> bool
val answers_ucq : Index.t -> Ucq.t -> const list list
