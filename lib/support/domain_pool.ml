type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* signalled when the queue gains tasks or on shutdown *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  mutable worker_ids : Domain.id list;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec take () =
    match Queue.take_opt t.queue with
    | Some task -> Some task
    | None ->
      if t.closed then None
      else begin
        Condition.wait t.work t.mutex;
        take ()
      end
  in
  match take () with
  | None -> Mutex.unlock t.mutex
  | Some task ->
    Mutex.unlock t.mutex;
    task ();
    worker_loop t

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      worker_ids = [];
    }
  in
  (* With one job every map runs inline in the caller — the sequential
     baseline involves no domains at all. *)
  if jobs > 1 then begin
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t.worker_ids <- List.map Domain.get_id t.workers
  end;
  t

let jobs t = t.jobs

let on_worker t = List.mem (Domain.self ()) t.worker_ids

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let map t f items =
  let n = Array.length items in
  (* A map issued from one of the pool's own workers runs inline: blocking
     that worker on tasks only the (busy) workers could drain would
     deadlock. Results are identical either way — only wall-clock changes. *)
  if t.jobs = 1 || n <= 1 || on_worker t then begin
    if t.closed then invalid_arg "Domain_pool.map: pool is shut down";
    Array.map f items
  end
  else begin
    (* Tasks store into a fixed slot, so results come back in input order no
       matter which worker finishes first. *)
    let results = Array.make n None in
    let remaining = ref n in
    let all_done = Condition.create () in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.add
        (fun () ->
          let r = match f items.(i) with v -> Ok v | exception e -> Error e in
          Mutex.lock t.mutex;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock t.mutex)
        t.queue
    done;
    Condition.broadcast t.work;
    while !remaining > 0 do
      Condition.wait all_done t.mutex
    done;
    Mutex.unlock t.mutex;
    (* Deterministic exception propagation: the failure of the lowest index
       wins, regardless of completion order. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

let submit t task =
  (* Fire-and-forget: exceptions are confined to the task (a raising task
     must not kill its worker, which outlives it and serves later tasks). *)
  let guarded () = try task () with _ -> () in
  if t.jobs = 1 then begin
    if t.closed then invalid_arg "Domain_pool.submit: pool is shut down";
    guarded ()
  end
  else begin
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.submit: pool is shut down"
    end;
    Queue.add guarded t.queue;
    Condition.signal t.work;
    Mutex.unlock t.mutex
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
