(** Indexed fact store.

    A hashed view of a {!Relational.Instance.t} keyed by
    [(predicate, argument position, constant)]: for every fact
    [R(c1,…,cn)] and every position [i], the tuple [(c1,…,cn)] is filed
    under [(R, i, ci)]. A join atom with at least one bound position is
    then matched against the smallest posting list of its bound positions
    instead of the whole relation — the O(1)-per-candidate retrieval the
    semi-naive chase and the {!Joiner} build on.

    Every stored fact carries its s-level (Lemma A.1) in a column beside
    its row: the chase and maintenance write it on insert, and
    {!iter_rows} reads it back without a fact being built.

    The API is immutable in style — {!add} returns the store — but the
    store shares its internal hash tables: use it linearly (the returned
    handle supersedes the argument). Conversion to and from
    [Instance.t] is provided at both ends. *)

open Relational
open Relational.Term

type t

(** Hash tables keyed by interned int arrays — fact keys
    [[| pid; cid1; …; cidn |]] and trigger keys — hashing a mix of every
    cell. Membership is one such table. *)
module Key_table : Hashtbl.S with type key = int array

(** A fresh empty store. *)
val create : unit -> t

(** Build a store holding the facts of an instance. *)
val of_instance : Instance.t -> t

(** The facts of the store, as an instance. *)
val to_instance : t -> Instance.t

(** [iter_rows idx f] — the store's rows in {e storage order}:
    predicates in intern order, each relation's live rows oldest-first
    (append order of the surviving posting entries). [f pid level cells]
    sees the predicate id, the row's s-level and its symbol ids
    ([cells.(i)] for argument [i], see {!Symtab}) without a fact being
    materialised; [cells] is scratch refilled for the next row, so copy
    it to keep it.
    Inserting the rows' facts into a fresh store whose symbol table
    interns the same symbols in the same order, in this order,
    reproduces this store's iteration order exactly — posting lists and
    relations present candidates in the same sequence — which is what
    trajectory-faithful recovery of a maintained store needs (row
    handles and free-list state may differ; neither is observable
    through the matching API). *)
val iter_rows : t -> (int -> int -> int array -> unit) -> unit

(** [iter_keys idx f] — {!iter_rows} with each row as a fresh fact key
    [[| pid; cid1; …; cidn |]]: [f key level]. *)
val iter_keys : t -> (int array -> int -> unit) -> unit

(** [add f idx] — file [f] under every argument position. No-op when the
    fact is already present. Mutates [idx] in place and returns it. *)
val add : Fact.t -> t -> t

(** [insert ?level f idx] — like {!add}, but reports whether the fact
    was new (a single membership probe). A new fact is stored with
    s-level [level] (default 0); a present one keeps its own. *)
val insert : ?level:int -> Fact.t -> t -> bool

(** [insert_key idx key ~level] — {!insert} for an interned fact key
    [[| pid; cid1; …; cidn |]] whose ids come from {!symtab}: the
    chase's hot path, which grounds rule heads straight into keys. When
    the key is new the store keeps [key] itself, so the caller must not
    mutate it afterwards. Hits ["engine.insert"] like {!insert}. *)
val insert_key : t -> int array -> level:int -> bool

(** [intern_fact idx f] — [f]'s key, interning its predicate and then
    its arguments left to right. *)
val intern_fact : t -> Fact.t -> int array

(** [find_key idx f] — [f]'s key when every symbol of [f] is interned;
    never assigns an id. *)
val find_key : t -> Fact.t -> int array option

(** [fact_of_key idx key] — the fact an interned key spells. *)
val fact_of_key : t -> int array -> Fact.t

(** [compare_keys idx a b] — {!Relational.Fact.compare} of the facts
    [a] and [b] spell, read off their ids: only the cells where the keys
    differ are externed. [0] iff [a] and [b] are equal. *)
val compare_keys : t -> int array -> int array -> int

(** [level_key idx key] — the s-level of a stored fact key; [None] when
    absent. *)
val level_key : t -> int array -> int option

(** [level idx f] — {!level_key} of [f]'s key. *)
val level : t -> Fact.t -> int option

(** [remove_key idx key] — delete the fact [key] spells and prune every
    posting list it was filed under; [false] when it was not present.
    Counts against [index.removes]. The incremental maintenance layer's
    over-delete phase is the intended caller — the chase itself never
    retracts. *)
val remove_key : t -> int array -> bool

(** [remove f idx] — {!remove_key} of [f]'s key. *)
val remove : Fact.t -> t -> bool

val mem_key : t -> int array -> bool
val mem : Fact.t -> t -> bool

(** Number of (distinct) facts, in O(1). *)
val size : t -> int

(** All tuples of predicate [p] (most recently added first). *)
val tuples_of : t -> string -> const list list

(** [tuples_at idx p i c] — the posting list of [(p, i, c)]: tuples of
    [p] whose [i]-th argument (0-based) is [c]. *)
val tuples_at : t -> string -> int -> const -> const list list

(** [count_at idx p i c] — length of the posting list, without
    materializing it. *)
val count_at : t -> string -> int -> const -> int

(** Number of tuples of [p]. *)
val count_of : t -> string -> int

(** [candidates idx atom binding] — candidate tuples for [atom] under
    [binding]: the smallest posting list over the bound positions of the
    atom (argument is a constant, or a variable bound by [binding]), or
    the whole relation when no position is bound. Every returned tuple
    still has to be checked positionally by the caller. *)
val candidates : t -> Atom.t -> Homomorphism.binding -> const list list

(** [candidate_count idx atom binding] — the length of the list
    {!candidates} would return, computed from bucket sizes only (used
    for cheapest-first atom ordering). *)
val candidate_count : t -> Atom.t -> Homomorphism.binding -> int

(** [fold_matches idx atom binding ~injective ~on_candidate ~on_fail f acc]
    — fold [f] over the extensions of [binding] that match [atom]
    against a stored fact, without materializing candidate tuples: the
    atom is compiled to an interned int pattern and compared against the
    store's columns cell by cell. Candidates come from the same posting
    list {!candidates} would pick, in the same (most recently added
    first) order; [on_candidate] fires once per candidate considered and
    [on_fail] once per candidate that does not match, so callers keep
    exact [joiner.candidates]/[joiner.backtracks] accounting. Counts one
    [index.probes] probe, like the list retrieval it replaces.
    [~injective] refuses extensions whose new values collide with the
    binding's range (or each other). *)
val fold_matches :
  t ->
  Atom.t ->
  Homomorphism.binding ->
  injective:bool ->
  on_candidate:(unit -> unit) ->
  on_fail:(unit -> unit) ->
  (Homomorphism.binding -> 'a -> 'a) ->
  'a ->
  'a

(** {2 Compiled atoms}

    The answer-enumeration hot path runs on interned ints end to end: a
    query atom is compiled once per request against the store's symbol
    table, and every subsequent selection/matching step is flat int
    arithmetic against a caller-owned binding environment — no [VarMap],
    no option, no tuple materialization. A binding environment [benv] is
    an int array indexed by variable slot: [benv.(s) >= 0] is the cell
    id the variable is bound to, [-1] is unbound. The caller owns slot
    assignment (one slot map per conjunctive query). *)

type catom
(** A compiled query atom. Carries private matching scratch: compile one
    per (request, atom); never share a [catom] between domains. *)

val compile_atom : t -> slot:(string -> int) -> Atom.t -> catom
(** [compile_atom idx ~slot a] — resolve [a]'s predicate and constant
    arguments against the store's symbol table (unknown symbols compile
    to never-matching patterns) and its variables to [slot x]. *)

val catom_unbound : catom -> benv:int array -> bool
(** Does the atom still contain a variable unbound in [benv]? *)

val catom_match_key : catom -> benv:int array -> int array -> bool
(** [catom_match_key ca ~benv key] — match [ca] against an interned
    fact key, binding its unbound variables in [benv]. On a mismatch
    (arity, predicate, a constant or a bound variable) [benv] is left as
    it was; on a match the new bindings stay, for {!catom_clear}. *)

val catom_clear : catom -> benv:int array -> unit
(** Unbind every variable slot of [ca] in [benv] — undoes
    {!catom_match_key} when [ca] was the first atom bound. *)

val catom_pid : catom -> int
(** The atom's predicate id; [-1] when the store never interned it. *)

val catom_level : catom -> int
(** The s-level of the row [ca] matches, valid inside the callback of
    {!fold_catom}. *)

val catom_count : t -> catom -> benv:int array -> int
(** {!candidate_count}, compiled: the same bucket sizes and
    first-strictly-smaller tie-breaking, with bound positions read from
    [benv]. No probe is counted (selection is free, as before). *)

val fold_catom :
  t ->
  catom ->
  benv:int array ->
  on_candidate:(unit -> unit) ->
  on_fail:(unit -> unit) ->
  (int -> bool) ->
  int ->
  bool
(** [fold_catom idx ca ~benv ~on_candidate ~on_fail f arg] —
    {!fold_matches}, compiled and non-injective: walk the same posting
    list in the same (most recently added first) order, binding [ca]'s
    unbound variables directly in [benv] for the duration of each
    matching candidate's [f arg] call (undone before the next candidate
    and before returning). [f] returning [true] stops the walk early and
    makes the fold return [true] — the satisfiability caller's early
    exit. [on_candidate]/[on_fail] fire exactly as in {!fold_matches},
    and one [index.probes] probe is counted. If [f] raises, [benv] is
    left as the raise saw it (the enumeration paths abandon the whole
    request on such unwinds). *)

(** Number of posting-list probes performed so far (statistics). *)
val probes : t -> int

(** The store's symbol table (shared with {!reader} views). *)
val symtab : t -> Symtab.t

(** Allocated capacity of the store in words: its flat vectors plus one
    word per bucket of the membership and posting tables. Stable under
    insert/delete churn thanks to free-list row reuse (asserted by the
    capacity-leak regression tests). *)
val capacity_words : t -> int

(** Bucket statistics of the membership table (chain lengths are what
    the hash's spread decides). *)
val membership_stats : t -> Hashtbl.statistics

(** The store's metrics registry: [index.probes], [index.inserts],
    [index.duplicates], [index.removes], plus the [joiner.*] counters the
    {!Joiner} files against the store it searches. *)
val metrics : t -> Obs.Metrics.t

(** [reader idx] — a view sharing [idx]'s fact tables but owning a fresh
    metrics registry. Worker domains search through readers (one each) so
    probe counting never races on the shared registry; the caller merges
    the reader registries back with {!Obs.Metrics.absorb}. The view must
    only be {e read} while [idx] itself is not being mutated — inserting
    through either handle while another domain reads is a data race. *)
val reader : t -> t
