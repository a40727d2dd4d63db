(** Decimal integer rendering without allocation.

    The one place an [int] becomes digits on the persistence and serving
    paths: {!Sexp.Writer} renders every profile integer through it, and
    {!Ormp_trace.Trace_file} every journal line and wire event. Output is
    byte-identical to [string_of_int], [min_int] and [max_int] included. *)

val max_length : int
(** The longest rendering of any [int] ([string_of_int min_int]). *)

val write : Bytes.t -> int -> int -> int
(** [write b off n] writes the digits of [n] (with a leading [-] when
    negative) into [b] at [off] and returns the offset just past them,
    [off + String.length (string_of_int n)]. Two digits per division.
    @raise Invalid_argument when they do not fit in [b]. *)
