(** Minimal JSON values with deterministic serialisation.

    The observability layer reports runs as JSON; serialisation is fully
    deterministic (object fields keep their given order, floats print with
    a fixed format), so reports are golden-testable once volatile timing
    values are normalised with {!map_floats}. The parser is the inverse on
    the serialiser's output and accepts ordinary interchange JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Serialise; one line, no trailing newline. *)
val to_string : t -> string

(** [to_channel oc j] — serialise followed by a newline. *)
val to_channel : out_channel -> t -> unit

(** [add_string buf s] — append [s] as a JSON string literal, escaped
    exactly as {!to_string} escapes [String s]. For writers that stream
    JSON into a buffer without building a {!t}. *)
val add_string : Buffer.t -> string -> unit

(** [string_at s pos] — decode the JSON string literal opening at byte
    [pos] of [s]: its value and the offset just past the closing quote.
    The inverse of {!add_string}, for readers that scan a known layout
    without building a {!t}. *)
val string_at : string -> int -> (string * int, string) result

(** [parse s] — parse a complete JSON document (trailing whitespace
    allowed). Numbers without [.]/[e] become [Int], others [Float]. *)
val parse : string -> (t, string) result

(** [member key j] — field lookup in an object ([None] otherwise). *)
val member : string -> t -> t option

(** [map_floats f j] — rewrite every [Float] leaf (used by golden tests
    to normalise timings). *)
val map_floats : (float -> float) -> t -> t

(** Recursively sort object fields by key (order-insensitive compare). *)
val sort_keys : t -> t
