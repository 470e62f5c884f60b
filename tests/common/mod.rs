//! What the suites that run servers and routers in scoped threads share.

use surface_knn::serve::Handle;

/// Shuts its handles down when dropped. Made inside the
/// `std::thread::scope` closure that spawns their `run()` threads, it
/// turns a failed assertion in that closure into a failed test instead
/// of a hung one: the unwind drops the guard, every `run()` drains and
/// returns, and the scope can join. `Handle::shutdown` is idempotent, so
/// the explicit shutdown on the passing path is unchanged.
pub struct ShutdownOnDrop(pub Vec<Handle>);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.iter().for_each(Handle::shutdown);
    }
}
