(** Real multicore execution of a trace (OCaml 5 domains), built for
    low coordination overhead.

    Where {!Simulator.Engine} charges virtual time, this executor runs
    the schedule for real — and unlike the seed's big-lock design, it
    keeps the hot paths off any global lock:

    - task status is an atomic state machine
      (Inactive → Active → Running → Done via CAS), so activation
      races, double-release detection and completion counting need no
      lock;
    - the scheduler itself stays single-threaded behind
      {!Sched.Protected}: workers refill a private bounded ready-buffer
      in batches (one short critical section per batch, [on_started]
      delivered at release), and completions hand a task's discovered
      activations plus [on_completed] to the scheduler in one batched
      critical section;
    - idle workers steal from peers' buffers before touching the
      scheduler lock;
    - each worker appends to a private log, merged after join;
    - idle workers spin with bounded exponential backoff, then park on
      an eventcount; wakeups are targeted (one signal per unit of new
      work) instead of broadcast.

    The protocol seen by the scheduler is the same as the simulator's:
    activations are delivered before the completion of the parent that
    caused them, and every task runs exactly once. Termination is
    detected lock-free from completed = activated (activations are
    counted before the counting of their parent's completion).

    Task durations are realized as calibrated busy-work against the
    monotonic clock ({!Spinwork}); durations below ~50 us are dominated
    by scheduling noise. Inner task parallelism ([Par]/[Stages]) is
    executed sequentially inside the owning worker. *)

type task_record = {
  task : int;
  start : float;  (** seconds since the run began (monotonic) *)
  finish : float;
  worker : int;  (** domain index that executed the task *)
}

type result = {
  wall_makespan : float;  (** real seconds from start to last completion *)
  tasks_executed : int;
  tasks_activated : int;
  ops : Sched.Intf.ops;  (** aggregate scheduler decision work *)
  worker_ops : Sched.Intf.ops array;
      (** {!ops} attributed to the worker whose critical section did
          the work; sums to [ops] *)
  log : task_record array;  (** completion order *)
  work_executed : float;  (** simulated-work units actually spun *)
  steals : int;  (** tasks moved between worker buffers *)
}

val run :
  ?domains:int ->
  ?work_unit:float ->
  ?batch:int ->
  ?run_task:(wid:int -> int -> unit) ->
  ?obs:Obs.Trace.t ->
  sched:Sched.Intf.factory ->
  Workload.Trace.t ->
  result
(** [run ~domains ~work_unit ~batch ~sched trace] executes the whole
    active set on [domains] worker domains (default 4), spinning
    [work_unit] real seconds per unit of task work (default [1e-4]).
    [batch] (default 16, rounded up to a power of two) bounds both the
    per-worker ready-buffer and the number of tasks pulled from the
    scheduler per critical section.

    [run_task] replaces the simulated spin entirely: when given, task
    [u]'s body is [run_task ~wid u] executed on worker domain [wid]
    (spin calibration is skipped; [work_unit] only scales the logged
    [work_executed]). The dispatch protocol is unchanged, so the body
    runs exactly once, strictly after every body of an activated
    ancestor task has returned and its completion was flushed to the
    scheduler — the precedence guarantee real maintenance work
    ({!Datalog.Incremental.apply_parallel}) relies on for quiescent
    upstream reads. A body must confine its writes to state owned by
    its task; if it raises, the run is aborted (every worker exits at
    its next shared-state check) and {!run} raises [Failure] with the
    task id and exception.

    [obs] (default {!Obs.Trace.disabled}) collects a timeline into the
    trace's per-worker rings: task spans (reusing the per-task log
    stamps — no extra clock reads), steal attempts with their yield,
    park spans, wake instants, and — via {!Sched.Protected} — one span
    per scheduler critical section recording measured lock wait and
    hold. Disabled, every instrumentation site is a single branch on
    [Ring.enabled]; summarize afterwards with {!Obs.Summary.of_trace}.
    @raise Failure if the scheduler deadlocks (no ready task while
    activated tasks remain and nothing is running) or violates safety
    (releases a task that was never activated, twice, or after it ran;
    activates a task after it ran), or if [run_task] raises. *)

val check : Workload.Trace.t -> result -> (unit, string) Stdlib.result
(** Model validation on the real timestamps: exactly the active set ran,
    each task once, and no task started before its activated ancestors
    finished. *)
