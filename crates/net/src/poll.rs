//! `poll(2)`, the one system call the TCP transport needs that std does not
//! wrap. std already links the C library, so a declaration is enough.

#![expect(
    unsafe_code,
    reason = "declares and calls poll(2) from the C library std links; std has no wrapper"
)]

use std::os::fd::RawFd;
use std::time::Duration;

/// Readable (or a listener has a connection to accept).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;

/// One `struct pollfd`. Errors and hang-ups are reported in `revents`
/// whatever `events` asks for; a negative `fd` is skipped.
#[repr(C)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and macOS.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Waits until an entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely), and returns how many are ready. The timeout rounds
/// *up* to whole milliseconds, so a short wait never returns early. A
/// signal ends the wait with 0 ready: callers re-poll with what remains of
/// their own deadline.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    let ms = timeout.map_or(-1, |t| {
        i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
    });
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` pollfd
    // records and `fds.len()` is its length, so the kernel reads and writes
    // only memory this call owns.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    match usize::try_from(ready) {
        Ok(n) => Ok(n),
        Err(_) => {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        }
    }
}
