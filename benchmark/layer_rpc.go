package main

import (
	"encoding/binary"

	"lambdastore/internal/core"
	"lambdastore/internal/rpc"
	"lambdastore/internal/wire"
)

// rpcProbe is the transport alone: a pooled client calling a
// benchmark-owned echo server over loopback TCP with the op's request and
// reply sizes — framing, the connection's read and write loops, goroutine
// hand-offs, and nothing of the node's handler.
type rpcProbe struct {
	srv   *rpc.Server
	pool  *rpc.Pool
	addr  string
	reply []byte
}

const echoMethod = "bench.echo"

func newRPCProbe() (*rpcProbe, error) {
	p := &rpcProbe{srv: rpc.NewServer(), pool: rpc.NewPool(nil), reply: make([]byte, 64<<10)}
	// The request's first four bytes say how long a reply to send back.
	p.srv.Handle(echoMethod, func(body []byte) ([]byte, error) {
		n := int(binary.LittleEndian.Uint32(body))
		if n > len(p.reply) {
			n = len(p.reply)
		}
		return p.reply[:n], nil
	})
	addr, err := p.srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = addr
	return p, nil
}

func (p *rpcProbe) close() {
	p.pool.Close()
	p.srv.Close() //nolint:errcheck // teardown
}

// invokeFrameLen is the size of the invoke request the client sends for
// this op: object, method, read-only flag, argument vector.
func invokeFrameLen(o op, args [][]byte) int {
	b := wire.AppendUvarint(nil, uint64(o.obj))
	b = wire.AppendString(b, o.method())
	b = wire.AppendUvarint(b, 1)
	return len(b) + len(core.EncodeArgs(args))
}

// echoRequest builds a request of reqLen bytes asking for replyLen back.
func echoRequest(reqLen, replyLen int) []byte {
	if reqLen < 4 {
		reqLen = 4
	}
	req := make([]byte, reqLen)
	binary.LittleEndian.PutUint32(req, uint32(replyLen))
	return req
}

func (p *rpcProbe) call(req []byte) error {
	_, err := p.pool.Call(p.addr, echoMethod, req)
	return err
}
