(* Local aliases for engine and hardware modules used across this library. *)
module Sim = Pico_engine.Sim
module Span = Pico_engine.Span
module Ledger = Pico_engine.Ledger
module Mailbox = Pico_engine.Mailbox
module Semaphore = Pico_engine.Semaphore
module Resource = Pico_engine.Resource
module Stats = Pico_engine.Stats
module Addr = Pico_hw.Addr
module Node = Pico_hw.Node
module Pagetable = Pico_hw.Pagetable
module Irq = Pico_hw.Irq
module Costs = Pico_costs.Costs
module Topology = Pico_fabric.Topology
module Route = Pico_fabric.Route
module Link = Pico_fabric.Link
module Linkfault = Pico_fabric.Linkfault
