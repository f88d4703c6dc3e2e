//! Allocations per frame, pinned: the work a codec does, counted instead of
//! timed, so host load cannot move it.
//!
//! A counting global allocator hands every request to [`System`] and counts
//! allocations and reallocations in a `const`-initialized thread-local, so
//! the other threads of the test harness never reach a test's count.
//!
//! * A reply serialized into a buffer with room allocates nothing, over
//!   either codec: that is what the reactor does with every reply, straight
//!   into the connection's write buffer.
//! * A request frame decodes into a tape the thread keeps, so once that
//!   tape has grown (the first frame on a thread), a `predict`,
//!   `query-plan` or `report-sample` frame decodes without allocating:
//!   nothing it holds survives into the `Request`.

use rush_serve::binary;
use rush_serve::protocol::{PlanRow, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a `const`-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and how many allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn replies() -> [Response; 3] {
    let row = PlanRow {
        job: 41,
        label: "terasort \"nightly\"".into(),
        eta: 2417,
        task_len: 60,
        target: 1234.5,
        level: 0.75,
        desired_now: 5,
        planned_completion: 1300,
        impossible: false,
        remaining_tasks: 17,
    };
    [
        Response::Prediction {
            job: 41,
            target: 1234.5,
            task_len: 60,
            bound: 1294.5,
            planned_completion: 1300,
            impossible: false,
        },
        Response::PlanTable { now_slot: 12, epoch: 3, rows: vec![row] },
        Response::Ack,
    ]
}

#[test]
fn replies_encode_into_a_reused_buffer_without_allocating() {
    let mut buf = Vec::with_capacity(4096);
    for resp in replies() {
        buf.clear();
        let ((), n) = allocations(|| resp.encode_into(&mut buf));
        assert_eq!(n, 0, "JSON {resp:?}");
        assert_eq!(buf, resp.encode().as_bytes(), "the wrapper writes the same bytes");

        buf.clear();
        let ((), n) = allocations(|| binary::frame_response_into(&resp, &mut buf));
        assert_eq!(n, 0, "RUSH1 {resp:?}");
        assert_eq!(buf, binary::frame_response(&resp), "the wrapper writes the same frame");
    }
}

#[test]
fn request_frames_decode_keeping_only_what_the_request_keeps() {
    let frames = [
        (r#"{"v":1,"op":"predict","job":41}"#, Request::Predict { job: 41 }),
        (r#"{"v":1,"op":"query-plan","job":41}"#, Request::QueryPlan { job: Some(41) }),
        (r#"{"v":1,"op":"query-plan"}"#, Request::QueryPlan { job: None }),
        (
            r#"{"v":1,"op":"report-sample","job":41,"runtime":61}"#,
            Request::ReportSample { job: 41, runtime: 61 },
        ),
    ];
    // The first frame on a thread grows its tape; later ones reuse it.
    let (first, n) = allocations(|| Request::decode(frames[3].0));
    assert_eq!(first.as_ref(), Ok(&frames[3].1));
    assert!(n > 0, "a cold tape grows: {n}");

    for (line, want) in &frames {
        let (got, n) = allocations(|| Request::decode(line));
        assert_eq!(got.as_ref(), Ok(want), "{line}");
        assert_eq!(n, 0, "JSON {line}");

        let payload = binary::encode_request(want);
        let (got, n) = allocations(|| binary::decode_request(&payload));
        assert_eq!(got.as_ref(), Ok(want), "{line}");
        assert_eq!(n, 0, "RUSH1 {line}");
    }
}
