(* Local aliases for modules from the engine, hardware, NIC and DWARF
   libraries. *)
module Sim = Pico_engine.Sim
module Span = Pico_engine.Span
module Ledger = Pico_engine.Ledger
module Mailbox = Pico_engine.Mailbox
module Semaphore = Pico_engine.Semaphore
module Resource = Pico_engine.Resource
module Stats = Pico_engine.Stats
module Rng = Pico_engine.Rng
module Addr = Pico_hw.Addr
module Physmem = Pico_hw.Physmem
module Pagetable = Pico_hw.Pagetable
module Numa = Pico_hw.Numa
module Cpu = Pico_hw.Cpu
module Irq = Pico_hw.Irq
module Node = Pico_hw.Node
module Wire = Pico_nic.Wire
module Fabric = Pico_nic.Fabric
module Extent = Pico_nic.Extent
module Sdma = Pico_nic.Sdma
module Rcvarray = Pico_nic.Rcvarray
module Hfi = Pico_nic.Hfi
module User_api = Pico_nic.User_api
module Ctype = Pico_dwarf.Ctype
module Compile = Pico_dwarf.Compile
module Encode = Pico_dwarf.Encode
module Costs = Pico_costs.Costs
