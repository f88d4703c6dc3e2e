//! The syscall shim: the one module in the workspace that contains
//! `unsafe` code.
//!
//! The build container has no cargo-registry access, so — exactly like the
//! in-workspace `rand`/`proptest` stand-ins — this is a
//! libc-crate-free FFI binding covering the five calls the reactor needs:
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`, and
//! `read`/`write`/`close` on the resulting descriptors. Every raw call is
//! wrapped in a safe function that translates `-1` into
//! [`std::io::Error::last_os_error`], and the only state that crosses the
//! boundary is plain integers and the fixed-layout [`RawEvent`] struct.
//!
//! On non-Linux targets every entry point compiles but returns
//! [`std::io::ErrorKind::Unsupported`], so the workspace still builds
//! there; `rushd` surfaces that error at startup.

#![allow(unsafe_code)]

use std::io;

/// A raw file descriptor (matches `std::os::unix::io::RawFd` on Unix).
pub type Fd = i32;

/// Readable readiness (`EPOLLIN`).
pub const EVENT_READ: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EVENT_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`) — always reported, never requested.
pub const EVENT_ERROR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`) — always reported, never requested.
pub const EVENT_HANGUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EVENT_RDHUP: u32 = 0x2000;

/// One `struct epoll_event`: readiness mask plus the caller's token.
///
/// On x86-64 the kernel ABI packs this struct (no padding between the
/// 32-bit mask and the 64-bit data word); other architectures use natural
/// alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Debug, Clone, Copy, Default)]
pub struct RawEvent {
    /// Readiness bits (`EVENT_*`).
    pub events: u32,
    /// The token registered with the descriptor.
    pub data: u64,
}

/// One `struct epoll_event`: readiness mask plus the caller's token.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct RawEvent {
    /// Readiness bits (`EVENT_*`).
    pub events: u32,
    /// The token registered with the descriptor.
    pub data: u64,
}

/// An owned descriptor: closed on drop.
#[derive(Debug)]
pub struct OwnedFd(Fd);

impl OwnedFd {
    /// The raw descriptor number.
    pub fn raw(&self) -> Fd {
        self.0
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // Best effort; a failed close on drop has no recovery path.
        let _ = close(self.0);
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Fd, OwnedFd, RawEvent};
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut RawEvent, maxevents: c_int, timeout: c_int)
            -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn sys_epoll_create() -> io::Result<OwnedFd> {
        // SAFETY: epoll_create1 takes no pointers; a valid flag word is the
        // whole contract.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(OwnedFd(fd))
    }

    fn ctl(epfd: Fd, op: c_int, fd: Fd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = RawEvent { events, data: token };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event for the
        // duration of the call; the kernel copies it before returning.
        check(unsafe { epoll_ctl(epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn sys_epoll_add(epfd: Fd, fd: Fd, events: u32, token: u64) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_ADD, fd, events, token)
    }

    pub fn sys_epoll_modify(epfd: Fd, fd: Fd, events: u32, token: u64) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn sys_epoll_delete(epfd: Fd, fd: Fd) -> io::Result<()> {
        ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    pub fn sys_epoll_wait(epfd: Fd, events: &mut [RawEvent], timeout_ms: i32) -> io::Result<usize> {
        let cap = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: the out-buffer is valid for `cap` entries and the kernel
        // writes at most that many.
        let n = check(unsafe { epoll_wait(epfd, events.as_mut_ptr(), cap, timeout_ms) })?;
        Ok(n as usize)
    }

    pub fn sys_eventfd() -> io::Result<OwnedFd> {
        // SAFETY: eventfd takes no pointers.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(OwnedFd(fd))
    }

    pub fn sys_read_u64(fd: Fd) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        // SAFETY: the buffer is valid for 8 bytes, the read count the
        // eventfd contract requires.
        let n = unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else if n as usize != buf.len() {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short eventfd read"))
        } else {
            Ok(u64::from_ne_bytes(buf))
        }
    }

    pub fn sys_write_u64(fd: Fd, value: u64) -> io::Result<()> {
        let buf = value.to_ne_bytes();
        // SAFETY: the buffer is valid for 8 bytes for the duration of the
        // call.
        let n = unsafe { write(fd, buf.as_ptr().cast::<c_void>(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn sys_close(fd: Fd) -> io::Result<()> {
        // SAFETY: close takes no pointers; the caller owns the descriptor.
        check(unsafe { close(fd) })?;
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Fd, OwnedFd, RawEvent};
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "epoll reactor requires linux"))
    }

    pub fn sys_epoll_create() -> io::Result<OwnedFd> {
        unsupported()
    }

    pub fn sys_epoll_add(_epfd: Fd, _fd: Fd, _events: u32, _token: u64) -> io::Result<()> {
        unsupported()
    }

    pub fn sys_epoll_modify(_epfd: Fd, _fd: Fd, _events: u32, _token: u64) -> io::Result<()> {
        unsupported()
    }

    pub fn sys_epoll_delete(_epfd: Fd, _fd: Fd) -> io::Result<()> {
        unsupported()
    }

    pub fn sys_epoll_wait(
        _epfd: Fd,
        _events: &mut [RawEvent],
        _timeout_ms: i32,
    ) -> io::Result<usize> {
        unsupported()
    }

    pub fn sys_eventfd() -> io::Result<OwnedFd> {
        unsupported()
    }

    pub fn sys_read_u64(_fd: Fd) -> io::Result<u64> {
        unsupported()
    }

    pub fn sys_write_u64(_fd: Fd, _value: u64) -> io::Result<()> {
        unsupported()
    }

    pub fn sys_close(_fd: Fd) -> io::Result<()> {
        unsupported()
    }
}

/// Creates an epoll instance (close-on-exec).
pub fn epoll_create() -> io::Result<OwnedFd> {
    imp::sys_epoll_create()
}

/// Registers `fd` with interest `events` under `token`.
pub fn epoll_add(epfd: Fd, fd: Fd, events: u32, token: u64) -> io::Result<()> {
    imp::sys_epoll_add(epfd, fd, events, token)
}

/// Replaces the interest set of an already-registered `fd`.
pub fn epoll_modify(epfd: Fd, fd: Fd, events: u32, token: u64) -> io::Result<()> {
    imp::sys_epoll_modify(epfd, fd, events, token)
}

/// Removes `fd` from the epoll instance.
pub fn epoll_delete(epfd: Fd, fd: Fd) -> io::Result<()> {
    imp::sys_epoll_delete(epfd, fd)
}

/// Waits for readiness; `timeout_ms < 0` blocks indefinitely. Returns the
/// number of events written into `events`.
pub fn epoll_wait(epfd: Fd, events: &mut [RawEvent], timeout_ms: i32) -> io::Result<usize> {
    imp::sys_epoll_wait(epfd, events, timeout_ms)
}

/// Creates a nonblocking close-on-exec eventfd counter at zero.
pub fn eventfd_create() -> io::Result<OwnedFd> {
    imp::sys_eventfd()
}

/// Reads (and thereby resets) an eventfd counter.
pub fn eventfd_read(fd: Fd) -> io::Result<u64> {
    imp::sys_read_u64(fd)
}

/// Adds `value` to an eventfd counter, making it readable.
pub fn eventfd_write(fd: Fd, value: u64) -> io::Result<()> {
    imp::sys_write_u64(fd, value)
}

/// Closes a raw descriptor.
pub fn close(fd: Fd) -> io::Result<()> {
    imp::sys_close(fd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn eventfd_round_trips_a_counter() {
        let efd = eventfd_create().expect("eventfd");
        eventfd_write(efd.raw(), 3).expect("write");
        eventfd_write(efd.raw(), 4).expect("write");
        assert_eq!(eventfd_read(efd.raw()).expect("read"), 7);
        // Drained: a second read reports WouldBlock, not a hang.
        let err = eventfd_read(efd.raw()).expect_err("empty counter");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_sees_an_armed_eventfd() {
        let ep = epoll_create().expect("epoll");
        let efd = eventfd_create().expect("eventfd");
        epoll_add(ep.raw(), efd.raw(), EVENT_READ, 42).expect("add");

        let mut events = [RawEvent::default(); 4];
        // Nothing armed yet: a zero timeout returns no events.
        assert_eq!(epoll_wait(ep.raw(), &mut events, 0).expect("wait"), 0);

        eventfd_write(efd.raw(), 1).expect("arm");
        let n = epoll_wait(ep.raw(), &mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 42);
        assert_ne!({ ev.events } & EVENT_READ, 0);

        epoll_delete(ep.raw(), efd.raw()).expect("delete");
    }
}
