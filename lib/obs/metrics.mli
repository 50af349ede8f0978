(** Monotonic counters and duration histograms.

    A registry holds named counters (monotonically increasing integers)
    and named histograms of durations in seconds (fixed log-spaced
    buckets, 1–2–5 per decade from 1µs to 10s plus an overflow bucket).
    Hot paths obtain a {!counter} handle once and bump it without
    further lookups.

    Serialisation is deterministic: {!to_json} sorts entries by name. *)

type t

(** A registered counter: an increment is one memory write. *)
type counter

val create : unit -> t

(** [counter m name] — find or register the counter [name]. *)
val counter : t -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** [count m name] — current value of [name] (0 when unregistered). *)
val count : t -> string -> int

(** [observe m name seconds] — record a duration in histogram [name]. *)
val observe : t -> string -> float -> unit

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** [absorb ~into src] — add every counter of [src] into [into]
    (registering missing names) and merge [src]'s histograms bucket-wise
    (counts and sums add; extrema combine pointwise). The query server
    drains its per-worker registries through this, in worker order, so
    the merged totals are reproducible. *)
val absorb : into:t -> t -> unit

type summary = {
  count : int;
  sum : float;
  min : float;  (** 0 when empty *)
  max : float;
  buckets : (float * int) list;  (** non-empty buckets: upper bound, hits *)
}

(** All histograms, sorted by name. *)
val histograms : t -> (string * summary) list

(** [quantile m name q] — the [q]-quantile ([0 ≤ q ≤ 1]) of histogram
    [name], estimated by rank interpolation inside the covering bucket
    and clamped to the observed extrema (so [quantile _ _ 0.] is the
    exact min and [quantile _ _ 1.] the exact max). [None] when the
    histogram is missing or empty.
    @raise Invalid_argument when [q] is outside [0,1]. *)
val quantile : t -> string -> float -> float option

(** [{"counters": {...}, "histograms": {...}}], names sorted. *)
val to_json : t -> Json.t
