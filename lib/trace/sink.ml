type t = Event.t -> unit

let null = fun (_ : Event.t) -> ()
