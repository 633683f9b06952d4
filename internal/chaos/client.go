package chaos

import "fmt"

// ClientFault is one injectable client-level misbehavior class, exercised
// by the topomapd chaos/soak harness (internal/serve/chaostest): where the
// cell faults corrupt a simulation, client faults attack the server's
// front door — the request arrives broken, hostile, or the client
// vanishes. The serving layer must answer every one of them with a
// well-formed envelope (or a clean connection close for the vanished
// client) while healthy traffic keeps flowing.
type ClientFault int

const (
	// ClientNone marks a well-behaved request.
	ClientNone ClientFault = iota
	// ClientSlowLoris trickles the request body byte by byte, slower than
	// the server's body deadline. The slow-loris guard must cut it off
	// with a 408 instead of letting it pin a connection.
	ClientSlowLoris
	// ClientMalformed sends a body that is not a valid request — truncated
	// JSON, wrong types, an uncompilable kernel. The decoder must answer a
	// structured 400, never a panic or a hang.
	ClientMalformed
	// ClientOversized sends a body (an enormous machine description) over
	// the server's body limit; the bounded reader must answer 413.
	ClientOversized
	// ClientDisconnect abandons the request mid-flight — after the body,
	// before the response. The server must notice (canceling the
	// evaluation once no client remains) and leak nothing.
	ClientDisconnect
)

// String names the client fault class as logs and tests spell it.
func (f ClientFault) String() string {
	switch f {
	case ClientNone:
		return "none"
	case ClientSlowLoris:
		return "slow-loris"
	case ClientMalformed:
		return "malformed"
	case ClientOversized:
		return "oversized"
	case ClientDisconnect:
		return "disconnect"
	default:
		return fmt.Sprintf("ClientFault(%d)", int(f))
	}
}

// InjectableClient lists the fault classes PickClient assigns to poisoned
// requests.
func InjectableClient() []ClientFault {
	return []ClientFault{ClientSlowLoris, ClientMalformed, ClientOversized, ClientDisconnect}
}

// clientDivisor is the poisoning rate: roughly one request in
// clientDivisor misbehaves, so a soak run interleaves hostile and healthy
// traffic the way a real overload does.
const clientDivisor = 3

// PickClient decides deterministically whether request id (any stable
// per-request token) misbehaves under the given seed, and how. Reruns of
// a seeded soak poison exactly the same requests.
func PickClient(seed int64, id string) (ClientFault, bool) {
	h := cellHash(seed, id)
	if h%clientDivisor != 0 {
		return ClientNone, false
	}
	inj := InjectableClient()
	return inj[(h/clientDivisor)%uint64(len(inj))], true
}
