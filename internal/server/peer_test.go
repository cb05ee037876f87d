package server

import (
	"bufio"
	"net"
	"testing"
)

// The raw binary peers tests use in place of a real controller or
// instance: each performs its side of the handshake and then speaks the
// binary codec directly, so a test can send exactly the frames it means
// to and observe exactly what comes back.

// rawClient is the controller side of one instance connection.
type rawClient struct {
	conn  net.Conn
	br    *bufio.Reader
	hello Hello
	wbuf  []byte
	rbuf  []byte
}

// dialRaw connects to an instance server, reads its banner and acks
// ProtoBinary. The connection closes with the test.
func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawClient{conn: conn, br: bufio.NewReader(conn)}
	if err := ReadFrame(c.br, &c.hello); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, HelloAck{Proto: ProtoBinary}); err != nil {
		t.Fatal(err)
	}
	return c
}

// send writes reqs back to back in one write, so the instance holds all
// of them fully received before it serves the first.
func (c *rawClient) send(t *testing.T, reqs ...Request) {
	t.Helper()
	c.wbuf = c.wbuf[:0]
	for _, req := range reqs {
		var err error
		if c.wbuf, err = AppendRequestFrame(c.wbuf, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		t.Fatal(err)
	}
}

// recv reads one reply.
func (c *rawClient) recv() (Reply, error) {
	p, err := ReadRawFrame(c.br, c.rbuf)
	if err != nil {
		return Reply{}, err
	}
	c.rbuf = p[:0]
	return DecodeReplyFrame(p)
}

// rawInstance is the instance side: it accepts one controller
// connection on a loopback listener, announces typeName/model, reads the
// controller's ack and hands the connection to serve. It returns the
// address to dial.
func rawInstance(t *testing.T, typeName, model string, serve func(conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		var ack HelloAck
		if WriteFrame(conn, Hello{TypeName: typeName, Model: model, Proto: ProtoBinary}) != nil ||
			ReadFrame(br, &ack) != nil || ack.Proto != ProtoBinary {
			conn.Close()
			return
		}
		serve(conn, br)
	}()
	return ln.Addr().String()
}
