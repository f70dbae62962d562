(* Public umbrella for the reproduction of
   "The Price of being Adaptive" (Ben-Baruch & Hendler, PODC 2015).

   Downstream users normally need only this module:

   {[
     open Price_adaptive
     let lock = Locks.Ticket.make ~n:8
     let _m, stats = Locks.Harness.run_contended lock ~n:8 ~k:4
   ]}

   The sub-libraries remain individually usable (tsim, execution,
   analysis, graphs, locks, objects, adversary, bounds). *)

module Tsim = struct
  module Ids = Tsim.Ids
  module Prog = Tsim.Prog
  module Layout = Tsim.Layout
  module Event = Tsim.Event
  module Wbuf = Tsim.Wbuf
  module Memmodel = Tsim.Memmodel
  module Config = Tsim.Config
  module Machine = Tsim.Machine
  module Sched = Tsim.Sched
  module Rng = Tsim.Rng
  module Vec = Tsim.Vec
end

module Execution = struct
  module Trace = Execution.Trace
  module Erasure = Execution.Erasure
  module Serial = Execution.Serial
  module Metrics = Execution.Metrics
  module Render = Execution.Render
  module Chrome = Execution.Chrome
end

module Obs = struct
  module Json = Obs.Json
  module Event = Obs.Event
  module Sink = Obs.Sink
  module Telemetry = Obs.Telemetry
end

module Analysis = struct
  module Flow = Analysis.Flow
  module Inset = Analysis.Inset
  module Ordered = Analysis.Ordered
  module Waits = Analysis.Waits
end

module Graphs = struct
  module Graph = Graphs.Graph
  module Turan = Graphs.Turan
end

module Locks = struct
  module Lock_intf = Locks.Lock_intf
  module Harness = Locks.Harness
  module Ticket = Locks.Ticket
  module Tas = Locks.Tas
  module Mcs = Locks.Mcs
  module Clh = Locks.Clh
  module Anderson = Locks.Anderson
  module Bakery = Locks.Bakery
  module Filter = Locks.Filter
  module Tournament = Locks.Tournament
  module Dekker = Locks.Dekker
  module Burns_lamport = Locks.Burns_lamport
  module Fastpath = Locks.Fastpath
  module Adaptive_list = Locks.Adaptive_list
  module Adaptive_tree = Locks.Adaptive_tree
  module Cascade = Locks.Cascade
  module Peterson_kit = Locks.Peterson_kit
  module Splitter = Locks.Splitter
  module Zoo = Locks.Zoo
end

module Objects = struct
  module Obj_intf = Objects.Obj_intf
  module Counter = Objects.Counter
  module Ostack = Objects.Ostack
  module Oqueue = Objects.Oqueue
  module Mutex_from_object = Objects.Mutex_from_object
  module Snapshot = Objects.Snapshot
  module Barrier = Objects.Barrier
  module Monitor = Objects.Monitor
end

module Adversary = struct
  module Report = Adversary.Report
  module Construction = Adversary.Construction
  module Witness = Adversary.Witness
end

module Lincheck = struct
  module History = Lincheck.History
  module Spec = Lincheck.Spec
  module Checker = Lincheck.Checker
  module Workload = Lincheck.Workload
end

module Mcheck = struct
  module Explore = Mcheck.Explore
end

module Campaign = struct
  module Cell = Campaign.Cell
  module Cache = Campaign.Cache
  module Bracket = Campaign.Bracket
  module Runner = Campaign.Runner
  module Driver = Campaign.Driver
end

module Bounds = struct
  module Logspace = Bounds.Logspace
  module Adaptivity = Bounds.Adaptivity
  module Theorem1 = Bounds.Theorem1
  module Theorem3 = Bounds.Theorem3
  module Corollaries = Bounds.Corollaries
  module Pso = Bounds.Pso
end
