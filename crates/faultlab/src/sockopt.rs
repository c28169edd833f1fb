//! Socket buffer sizes, the one socket option `std::net` does not
//! expose: `setsockopt`/`getsockopt(SOL_SOCKET, SO_SNDBUF/SO_RCVBUF)`
//! straight from libc (Linux constants), exactly as NetPIPE's `-b`
//! option sets them. Both real-mode stacks (`netpipe::real_tcp` and
//! `mplite`) size their sockets through this one function.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;

// Linux socket-option constants (see <sys/socket.h>).
const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

extern "C" {
    fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const core::ffi::c_void,
        optlen: u32,
    ) -> i32;
    fn getsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *mut core::ffi::c_void,
        optlen: *mut u32,
    ) -> i32;
}

/// Set a socket's send/receive buffer sizes (0 = leave the kernel
/// default). Returns the effective (sndbuf, rcvbuf) the kernel granted —
/// Linux doubles the requested value for bookkeeping, and clamps to
/// `net.core.{w,r}mem_max`, the very ceiling the paper tunes.
#[expect(
    unsafe_code,
    reason = "std::net has no socket-buffer setter; libc's socket-option calls are the only way"
)]
pub fn set_socket_buffers(stream: &TcpStream, sndbuf: u32, rcvbuf: u32) -> io::Result<(u32, u32)> {
    let fd = stream.as_raw_fd();
    let len = std::mem::size_of::<i32>() as u32;
    let mut granted = [0i32; 2];
    // SAFETY: `fd` is an open socket that `stream` keeps alive for the
    // whole block, and every `optval` points at a live, aligned `i32`
    // whose size is the `optlen` passed with it.
    unsafe {
        for (opt, bytes) in [(SO_SNDBUF, sndbuf), (SO_RCVBUF, rcvbuf)] {
            let v = bytes as i32;
            if bytes > 0 && setsockopt(fd, SOL_SOCKET, opt, (&v as *const i32).cast(), len) != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        for (opt, v) in [SO_SNDBUF, SO_RCVBUF].into_iter().zip(&mut granted) {
            let mut got = len;
            if getsockopt(fd, SOL_SOCKET, opt, (v as *mut i32).cast(), &mut got) != 0 {
                return Err(io::Error::last_os_error());
            }
        }
    }
    Ok((granted[0].max(0) as u32, granted[1].max(0) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let c = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (s, _) = l.accept().unwrap();
        (c, s)
    }

    #[test]
    fn nonzero_request_is_granted_and_zero_keeps_the_kernel_default() {
        let (a, b) = loopback_pair();
        // A zero request sets nothing: two untouched sockets report the
        // same kernel default.
        let default = set_socket_buffers(&a, 0, 0).unwrap();
        assert!(default.0 > 0 && default.1 > 0, "{default:?}");
        assert_eq!(set_socket_buffers(&b, 0, 0).unwrap(), default);

        // 64 KiB sits under every stock `{w,r}mem_max`, so the kernel
        // grants at least the request (Linux reports it doubled).
        let req = 64 * 1024;
        let (snd, rcv) = set_socket_buffers(&a, req, 0).unwrap();
        assert!(snd >= req, "sndbuf {snd} < {req}");
        assert_eq!(rcv, default.1, "a zero rcvbuf request changed it");
        let (snd2, rcv) = set_socket_buffers(&b, 0, req).unwrap();
        assert_eq!(snd2, default.0, "a zero sndbuf request changed it");
        assert!(rcv >= req, "rcvbuf {rcv} < {req}");
    }
}
