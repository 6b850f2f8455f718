package server

import (
	"cmp"
	"io"
	"net"
	"syscall"
)

// newFDSender returns a sender for nc, or nil when nc is not a TCP
// connection.
func newFDSender(nc net.Conn) *fdSender {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		return nil
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &fdSender{rc: rc}
	s.send, s.loop = s.sendFD, s.step
	return s
}

// step sends until the socket is full (false: wait) or the range is out,
// failed, or cut short by the end of the file (true).
func (s *fdSender) step(sock uintptr) bool {
	for s.left > 0 {
		n, err := syscall.Sendfile(int(sock), s.in, &s.off, s.left)
		s.left -= max(n, 0)
		switch {
		case err == syscall.EAGAIN:
			return false
		case err == syscall.EINTR:
		case err != nil || n == 0:
			s.err = cmp.Or(err, io.ErrUnexpectedEOF)
			return true
		}
	}
	return true
}
