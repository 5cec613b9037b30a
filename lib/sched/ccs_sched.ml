(** Schedulers: the paper's partitioned schedulers, the related-work
    baselines, analytic bounds, and the plan runner. *)

module Schedule = Schedule
module Plan = Plan
module Simulate = Simulate
module Baseline = Baseline
module Scaling = Scaling
module Kohli = Kohli
module Partitioned = Partitioned
module Analysis = Analysis
module Runner = Runner
module Supervisor = Supervisor
module Adapt = Adapt
module Profile = Profile
