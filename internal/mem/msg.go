package mem

import "fmt"

// msgType enumerates coherence protocol messages.
type msgType uint8

const (
	// Cache → directory requests.
	msgGetS msgType = iota // read permission
	msgGetM                // write permission
	msgPutM                // writeback of a dirty line (carries data)

	// Directory → cache.
	msgFwdGetS // forward: send line to directory, downgrade to S
	msgFwdGetM // forward: send line to directory, invalidate
	msgInv     // invalidate shared copy
	msgDataS   // fill with Shared permission
	msgDataE   // fill with Exclusive permission
	msgDataM   // fill with Modified permission
	msgWBAck   // writeback acknowledged
)

// The cache → directory responses — invalidation ack, owner data or no
// data, fill ack — are not messages: the directory acts on each at its
// arrival time when it is sent (see dirLine).

var msgNames = [...]string{
	msgGetS: "GetS", msgGetM: "GetM", msgPutM: "PutM",
	msgFwdGetS: "FwdGetS", msgFwdGetM: "FwdGetM", msgInv: "Inv",
	msgDataS: "DataS", msgDataE: "DataE", msgDataM: "DataM", msgWBAck: "WBAck",
}

func (t msgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("msgType(%d)", uint8(t))
}

// message is one protocol message in flight.
type message struct {
	typ  msgType
	from int    // sending cache ID; -1 for the directory
	base uint64 // line base address
	row  int32  // line data (see System.rows); 0 for a message without data
}

func (m message) String() string {
	return fmt.Sprintf("%s[from=%d line=%#x]", m.typ, m.from, m.base)
}
