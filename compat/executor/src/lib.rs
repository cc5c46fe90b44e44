//! A small, ground-up async runtime for the offline workspace.
//!
//! The build environment has no registry access, so instead of depending on
//! tokio the workspace vendors the few hundred lines of executor it needs —
//! in the spirit of the "build an executor from scratch" walkthroughs: a
//! [`Runtime`] with a configurable number of worker threads pulling tasks
//! from one injector queue, [`Handle::spawn`] returning a [`JoinHandle`],
//! [`block_on`] for driving a future from a synchronous thread, async
//! [`oneshot`] and bounded [`mpsc`] channels, and a timer wheel
//! ([`sleep`] / [`timeout`]) driven by a monotonic clock.
//!
//! Execution model: every spawned future becomes an internal `Task` — an
//! `Arc` holding the boxed future behind a mutex plus a `scheduled` flag.
//! Waking a task enqueues it exactly once; a worker dequeues it, clears
//! the flag *before* polling (so wake-ups racing the poll re-enqueue it),
//! and polls. There is no work stealing and no I/O reactor: the runtime
//! is built for CPU-bound decision jobs whose concurrency is bounded
//! upstream by admission control, not for massive socket fan-in.

mod channel;
mod task;
mod timer;

pub use channel::{mpsc, oneshot};
pub use task::{block_on, Handle, JoinHandle, Runtime};
pub use timer::{sleep, timeout, Elapsed, Sleep, Timeout};
