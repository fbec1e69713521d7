//! The shared tuple space.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use sdl_dataspace::{first_match, Dataspace, TupleSource};
use sdl_tuple::{Pattern, ProcId, Tuple};

struct Inner {
    ds: Dataspace,
    closed: bool,
}

/// A thread-safe Linda tuple space.
///
/// All blocking operations return `None` once the space is
/// [closed](TupleSpace::close), which is how worker pools shut down.
///
/// # Examples
///
/// ```
/// use sdl_linda::TupleSpace;
/// use sdl_tuple::{pattern, tuple, Value};
/// use std::sync::Arc;
///
/// let ts = Arc::new(TupleSpace::new());
/// let producer = {
///     let ts = ts.clone();
///     std::thread::spawn(move || ts.out(tuple![Value::atom("item"), 1]))
/// };
/// let got = ts.take(&pattern![Value::atom("item"), any]).unwrap();
/// assert_eq!(got[1], Value::Int(1));
/// producer.join().unwrap();
/// ```
pub struct TupleSpace {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl TupleSpace {
    /// Creates an empty space.
    pub fn new() -> TupleSpace {
        TupleSpace {
            inner: Mutex::new(Inner {
                ds: Dataspace::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Linda `out`: adds a tuple.
    pub fn out(&self, t: Tuple) {
        let mut inner = self.inner.lock();
        inner.ds.assert_tuple(ProcId::ENV, t);
        drop(inner);
        self.cv.notify_all();
    }

    /// Linda `in`: blocks until a tuple matches `p`, retracts and returns
    /// it. Returns `None` if the space is closed (immediately or while
    /// waiting).
    pub fn take(&self, p: &Pattern) -> Option<Tuple> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(id) = first_match(&inner.ds, p) {
                return inner.ds.retract(id);
            }
            if inner.closed {
                return None;
            }
            self.cv.wait(&mut inner);
        }
    }

    /// Linda `rd`: blocks until a tuple matches `p` and returns a copy.
    /// Returns `None` if the space is closed.
    pub fn read(&self, p: &Pattern) -> Option<Tuple> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(id) = first_match(&inner.ds, p) {
                return inner.ds.tuple(id).cloned();
            }
            if inner.closed {
                return None;
            }
            self.cv.wait(&mut inner);
        }
    }

    /// Linda `inp`: non-blocking `take`.
    pub fn try_take(&self, p: &Pattern) -> Option<Tuple> {
        let mut inner = self.inner.lock();
        first_match(&inner.ds, p).and_then(|id| inner.ds.retract(id))
    }

    /// Linda `rdp`: non-blocking `read`.
    pub fn try_read(&self, p: &Pattern) -> Option<Tuple> {
        let inner = self.inner.lock();
        first_match(&inner.ds, p).and_then(|id| inner.ds.tuple(id).cloned())
    }

    /// Linda `eval`: spawns a thread computing a tuple and `out`s the
    /// result.
    pub fn eval_spawn<F>(self: &Arc<Self>, f: F) -> std::thread::JoinHandle<()>
    where
        F: FnOnce() -> Tuple + Send + 'static,
    {
        let ts = Arc::clone(self);
        std::thread::spawn(move || {
            let t = f();
            ts.out(t);
        })
    }

    /// Closes the space: all current and future blocking calls return
    /// `None`. Tuples remain readable via the non-blocking calls.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }

    /// True if closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Number of tuples currently in the space.
    pub fn len(&self) -> usize {
        self.inner.lock().ds.len()
    }

    /// True if the space holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tuples matching `p`.
    pub fn count(&self, p: &Pattern) -> usize {
        self.inner.lock().ds.count_matches(p)
    }

    /// A snapshot of the whole space.
    pub fn snapshot(&self) -> Vec<Tuple> {
        self.inner
            .lock()
            .ds
            .iter()
            .map(|(_, t)| t.clone())
            .collect()
    }
}

impl Default for TupleSpace {
    fn default() -> TupleSpace {
        TupleSpace::new()
    }
}

impl std::fmt::Debug for TupleSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleSpace")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdl_tuple::{pattern, tuple, Value};

    #[test]
    fn out_take_roundtrip() {
        let ts = TupleSpace::new();
        ts.out(tuple![Value::atom("x"), 1]);
        ts.out(tuple![Value::atom("x"), 2]);
        assert_eq!(ts.len(), 2);
        let t = ts.take(&pattern![Value::atom("x"), 1]).unwrap();
        assert_eq!(t[1], Value::Int(1));
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn read_does_not_remove() {
        let ts = TupleSpace::new();
        ts.out(tuple![Value::atom("x")]);
        assert!(ts.read(&pattern![Value::atom("x")]).is_some());
        assert_eq!(ts.len(), 1);
        assert!(ts.try_read(&pattern![Value::atom("x")]).is_some());
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn try_take_nonblocking() {
        let ts = TupleSpace::new();
        assert!(ts.try_take(&pattern![Value::atom("x")]).is_none());
        ts.out(tuple![Value::atom("x")]);
        assert!(ts.try_take(&pattern![Value::atom("x")]).is_some());
        assert!(ts.is_empty());
    }

    #[test]
    fn blocking_take_wakes_on_out() {
        let ts = std::sync::Arc::new(TupleSpace::new());
        let t2 = ts.clone();
        let h = std::thread::spawn(move || t2.take(&pattern![Value::atom("late"), any]));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ts.out(tuple![Value::atom("late"), 9]);
        let got = h.join().unwrap().unwrap();
        assert_eq!(got[1], Value::Int(9));
    }

    #[test]
    fn close_unblocks_waiters() {
        let ts = std::sync::Arc::new(TupleSpace::new());
        let t2 = ts.clone();
        let h = std::thread::spawn(move || t2.take(&pattern![Value::atom("never")]));
        std::thread::sleep(std::time::Duration::from_millis(10));
        ts.close();
        assert!(h.join().unwrap().is_none());
        assert!(ts.is_closed());
        assert!(ts.take(&pattern![Value::atom("never")]).is_none());
    }

    #[test]
    fn eval_spawn_outs_result() {
        let ts = std::sync::Arc::new(TupleSpace::new());
        let h = ts.eval_spawn(|| tuple![Value::atom("result"), 6 * 7]);
        let t = ts.take(&pattern![Value::atom("result"), any]).unwrap();
        assert_eq!(t[1], Value::Int(42));
        h.join().unwrap();
    }

    #[test]
    fn count_and_snapshot() {
        let ts = TupleSpace::new();
        for i in 0..3 {
            ts.out(tuple![Value::atom("n"), i]);
        }
        assert_eq!(ts.count(&pattern![Value::atom("n"), any]), 3);
        assert_eq!(ts.snapshot().len(), 3);
    }

    #[test]
    fn pattern_with_variables() {
        let ts = TupleSpace::new();
        ts.out(tuple![3, 3]);
        ts.out(tuple![3, 4]);
        // <α, α>: only the equal pair matches.
        let t = ts.take(&pattern![var 0, var 0]).unwrap();
        assert_eq!(t, tuple![3, 3]);
    }
}
