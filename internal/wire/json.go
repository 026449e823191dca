package wire

import (
	"encoding/json"
	"fmt"
)

// envelope is the debug JSON rendering of a framed message. It exists for
// -trace output and human inspection only; the binary codec is the canonical
// transport encoding.
type envelope struct {
	WireVersion int         `json:"wire_version"`
	Type        string      `json:"type"`
	Msg         interface{} `json:"msg"`
}

// ToJSON renders a message as an indented debug envelope. It accepts the five
// wire message types and rejects anything else.
func ToJSON(msg interface{}) ([]byte, error) {
	var t MsgType
	switch msg.(type) {
	case Bid:
		t = TypeBid
	case Alloc:
		t = TypeAlloc
	case Load:
		t = TypeLoad
	case Bill:
		t = TypeBill
	case Grievance:
		t = TypeGrievance
	default:
		return nil, fmt.Errorf("wire: ToJSON: unsupported type %T", msg)
	}
	return json.MarshalIndent(envelope{WireVersion: Version, Type: t.String(), Msg: msg}, "", "  ")
}

// FrameToJSON decodes one binary frame and renders it as a debug envelope.
// A ledger's stored bill or load ack renders once expanded to the frame it
// stands for (ExpandStored).
func FrameToJSON(data []byte) ([]byte, error) {
	t, err := Peek(data)
	if err != nil {
		return nil, err
	}
	switch t {
	case TypeBid:
		m, _, err := DecodeBid(data)
		if err != nil {
			return nil, err
		}
		return ToJSON(m)
	case TypeAlloc:
		m, _, err := DecodeAlloc(data)
		if err != nil {
			return nil, err
		}
		return ToJSON(m)
	case TypeLoad:
		m, _, err := DecodeLoad(data)
		if err != nil {
			return nil, err
		}
		return ToJSON(m)
	case TypeBill:
		m, _, err := DecodeBill(data)
		if err != nil {
			return nil, err
		}
		return ToJSON(m)
	case TypeGrievance:
		m, _, err := DecodeGrievance(data)
		if err != nil {
			return nil, err
		}
		return ToJSON(m)
	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadType, byte(t))
	}
}
