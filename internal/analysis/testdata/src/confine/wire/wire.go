// Package wire mirrors a package outside the go-statement rule's scope:
// servers start a goroutine per connection. The atomic rule still
// applies.
package wire

import "sync/atomic"

var conns int64

func serve(accept func() func()) {
	for {
		handle := accept()
		if handle == nil {
			return
		}
		go handle()
	}
}

func opened() int64 {
	return atomic.LoadInt64(&conns) // want `package-level sync/atomic function`
}
