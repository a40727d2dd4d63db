type chunk = {
  instr : int array;
  addr : int array;
  size : int array;
  store : int array;
  mutable len : int;
}

(* Small enough that the four chunk arrays plus the consumer's scratch
   arrays stay resident in L1/L2 across the fill and drain passes; large
   enough that the per-chunk flush overhead is noise. *)
let default_capacity = 512

let iter c f =
  for i = 0 to c.len - 1 do
    f ~instr:c.instr.(i) ~addr:c.addr.(i) ~size:c.size.(i) ~is_store:(c.store.(i) <> 0)
  done

type t = {
  chunk : chunk;
  capacity : int;
  on_chunk : chunk -> unit;
  on_event : Event.t -> unit;
  children : t list;
      (** downstream batches fed by [on_chunk]/[on_event] (fanout); they
          buffer independently, so {!flush} cascades into them *)
}

let create ?(capacity = default_capacity) ~on_chunk ~on_event () =
  if capacity <= 0 then invalid_arg "Batch.create: capacity must be positive";
  {
    chunk =
      {
        instr = Array.make capacity 0;
        addr = Array.make capacity 0;
        size = Array.make capacity 0;
        store = Array.make capacity 0;
        len = 0;
      };
    capacity;
    on_chunk;
    on_event;
    children = [];
  }

(* Hand the chunk to [on_chunk] and empty it whether that returns or
   raises, so a chunk is delivered at most once: a crash-time {!flush}
   (e.g. [Runner.run_batched]'s) must not send again the chunk whose
   consumer just raised. One handler per chunk, none per access. *)
let[@inline never] deliver t c =
  match t.on_chunk c with
  | () -> c.len <- 0
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    c.len <- 0;
    Printexc.raise_with_backtrace exn bt

let rec flush t =
  if t.chunk.len > 0 then deliver t t.chunk;
  List.iter flush t.children

let[@inline] on_access t ~instr ~addr ~size ~is_store =
  let c = t.chunk in
  if c.len = t.capacity then deliver t c;
  (* [len < capacity = length of each array] holds here, so the writes
     need no bounds checks — this function runs once per executed
     load/store. *)
  let i = c.len in
  Array.unsafe_set c.instr i instr;
  Array.unsafe_set c.addr i addr;
  Array.unsafe_set c.size i size;
  Array.unsafe_set c.store i (Bool.to_int is_store);
  c.len <- i + 1

let event t (ev : Event.t) =
  match ev with
  | Access { instr; addr; size; is_store } -> on_access t ~instr ~addr ~size ~is_store
  | Alloc _ | Free _ ->
    flush t;
    t.on_event ev

let fanout ?(capacity = default_capacity) children =
  if capacity <= 0 then invalid_arg "Batch.fanout: capacity must be positive";
  let t =
    {
      chunk =
        {
          instr = Array.make capacity 0;
          addr = Array.make capacity 0;
          size = Array.make capacity 0;
          store = Array.make capacity 0;
          len = 0;
        };
      capacity;
      on_chunk =
        (fun c ->
          List.iter
            (fun child ->
              for i = 0 to c.len - 1 do
                on_access child ~instr:(Array.unsafe_get c.instr i)
                  ~addr:(Array.unsafe_get c.addr i)
                  ~size:(Array.unsafe_get c.size i)
                  ~is_store:(Array.unsafe_get c.store i <> 0)
              done)
            children);
      on_event = (fun ev -> List.iter (fun child -> event child ev) children);
      children;
    }
  in
  t
