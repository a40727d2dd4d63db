(** Supervised execution of one task in its own domain.

    The supervisor gives a task a deadline and a bounded retry policy,
    and isolates its crashes: an exception ends the task's domain, not
    the suite. Cancellation is cooperative — OCaml domains cannot be
    killed from outside — so tasks receive a [should_stop] closure and
    are expected to poll it from their event path (the suite polls per
    chunk and per alloc or free); when the deadline passes the flag
    flips, and the task raises {!Cancelled} at its next poll. *)

exception Cancelled
(** Raised {e by the task} (typically via its guard) once
    [should_stop] turns true. *)

type failure = { attempts : int; error : string; backtrace : string }

type 'a outcome =
  | Completed of 'a
  | Failed of failure  (** crashed on every attempt *)
  | Timed_out of { attempts : int; timeout_s : float }

val run :
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  (should_stop:(unit -> bool) -> 'a) ->
  'a outcome
(** Run the task in a fresh domain. Crashes are retried up to [retries]
    times (so at most [retries + 1] attempts) with linear backoff of
    [backoff_s * attempt] seconds; a timeout is terminal. The task's
    exception text and backtrace are preserved in {!Failed}. *)
