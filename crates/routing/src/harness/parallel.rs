//! The one name left of the sharded executor, which is gone: the
//! emulator settles on one thread.

use super::{ControlPlaneSim, WorkModel};
use crystalnet_net::Partition;
use crystalnet_sim::{SimDuration, SimTime};

impl ControlPlaneSim {
    /// [`Self::run_until_quiet`], returning `shard_work` untouched.
    ///
    /// Kept only for the benchmark's `sim.parallel.*` probe, its one
    /// caller, which now times a serial settle against itself; the probe
    /// and this forward go together.
    #[doc(hidden)]
    pub fn run_until_quiet_parallel(
        &mut self,
        quiet: SimDuration,
        deadline: SimTime,
        _partition: &Partition,
        shard_work: Vec<Box<dyn WorkModel>>,
    ) -> (Option<SimTime>, Vec<Box<dyn WorkModel>>) {
        (self.run_until_quiet(quiet, deadline), shard_work)
    }
}
