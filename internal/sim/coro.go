//go:build go1.23

// The process coroutine is built on iter.Pull (Go 1.23). The build
// constraint raises this file's language version above the module's
// go 1.22 directive, so the rest of the module — and the benchmark
// module that imports it — keeps building at 1.22.

package sim

import "iter"

// start creates the coroutine that runs p's body; the caller's next
// switch starts it. The wrapper turns a panic in the body into a kernel
// abort (see finish).
func (p *Proc) start() {
	fn := p.body
	p.body = nil
	p.next, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		defer func() { p.finish(recover()) }()
		fn(p)
	})
}
